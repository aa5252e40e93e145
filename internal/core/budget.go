package core

import (
	"runtime"
	"sync/atomic"
)

// trainBudget is the process-wide training budget: a counting semaphore
// bounding how many fits train at once across ALL Train, FineTune and
// TrainPredictor calls. A fit holds one token for its whole run. The
// budget also sizes a predictor's training pool: TrainPredictor runs at
// most this many of its fits at once. Gating every fit on one shared
// budget keeps concurrent training calls from oversubscribing the
// machine.
var trainBudget atomic.Pointer[chan struct{}]

func init() { SetTrainBudget(0) }

// SetTrainBudget bounds the number of fits training at once in the
// process, and with it the number of fits a predictor trains at once;
// n <= 0 resets it to GOMAXPROCS. Call it before training starts — fits
// already holding a token from the previous budget drain against that
// budget.
func SetTrainBudget(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	ch := make(chan struct{}, n)
	trainBudget.Store(&ch)
}

// acquireTrainToken blocks until a budget token is free and returns the
// channel the token must be released to (the budget may be swapped while
// a token is held).
func acquireTrainToken() chan struct{} {
	ch := *trainBudget.Load()
	ch <- struct{}{}
	return ch
}

func releaseTrainToken(ch chan struct{}) { <-ch }

// trainBudgetSize is the current budget: how many fits may train at once.
func trainBudgetSize() int { return cap(*trainBudget.Load()) }
