package core

import (
	"runtime"
	"sync/atomic"
)

// trainBudget is the process-wide training-worker budget: a counting
// semaphore bounding how many training/validation worker tasks execute
// concurrently across ALL Train/TrainPredictor calls. It also sizes a
// predictor's training pool: TrainPredictor runs at most this many fits
// at once and, unless TrainConfig.Workers says otherwise, splits the
// budget among them as per-batch workers. Gating every worker task on one
// shared budget keeps concurrent training calls from oversubscribing the
// machine.
var trainBudget atomic.Pointer[chan struct{}]

func init() { SetTrainBudget(0) }

// SetTrainBudget bounds the total number of concurrently executing
// training worker tasks in the process, and with it the number of fits a
// predictor trains at once; n <= 0 resets it to GOMAXPROCS.
// Call it before training starts — tasks already holding a token from the
// previous budget drain against that budget.
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

// trainBudgetSize is the current budget: how many training worker tasks
// may execute at once.
func trainBudgetSize() int { return cap(*trainBudget.Load()) }
