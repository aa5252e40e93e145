package core

import (
	"runtime"
	"sync/atomic"
)

// trainBudget is the process-wide training-worker budget: a counting
// semaphore bounding how many training/validation worker tasks execute
// concurrently across ALL Train/TrainPredictor calls. An ensemble
// fans out one goroutine per member and fit fans
// out per-batch workers inside each; gating every worker task on one
// shared budget keeps the multiplied fan-out (5 metrics x k members x
// per-fit workers) from oversubscribing the machine.
var trainBudget atomic.Pointer[chan struct{}]

func init() { SetTrainBudget(0) }

// SetTrainBudget bounds the total number of concurrently executing
// training worker tasks in the process; n <= 0 resets it to GOMAXPROCS.
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
