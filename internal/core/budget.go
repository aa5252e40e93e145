package core

import "runtime"

// trainBudget is the process-wide training budget, sized to GOMAXPROCS
// once at init: a counting semaphore bounding how many fits train at once
// across ALL Train, FineTune and TrainPredictor calls. A fit holds one
// token for its whole run. The budget also sizes a predictor's training
// pool: TrainPredictor runs at most this many of its fits at once.
// Gating every fit on one shared budget keeps concurrent training calls
// from oversubscribing the machine.
var trainBudget = make(chan struct{}, runtime.GOMAXPROCS(0))
