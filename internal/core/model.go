package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/nn"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// Metric identifies one of the five cost metrics of Section IV-A.
type Metric int

// Cost metrics.
const (
	MetricThroughput Metric = iota
	MetricProcLatency
	MetricE2ELatency
	MetricBackpressure
	MetricSuccess
)

var metricNames = [...]string{"throughput", "proc-latency", "e2e-latency", "backpressure", "success"}

// NumMetrics is the number of cost metrics: the slots of a Predictor.
const NumMetrics = len(metricNames)

func (m Metric) String() string {
	if m < 0 || int(m) >= len(metricNames) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// AllMetrics lists the five cost metrics in paper order.
func AllMetrics() []Metric {
	return []Metric{MetricThroughput, MetricProcLatency, MetricE2ELatency, MetricBackpressure, MetricSuccess}
}

// IsRegression reports whether the metric is modeled as a regression task
// (true) or binary classification (false).
func (m Metric) IsRegression() bool {
	return m == MetricThroughput || m == MetricProcLatency || m == MetricE2ELatency
}

// Value extracts the raw regression target from measured metrics.
func (m Metric) Value(mt *sim.Metrics) float64 {
	switch m {
	case MetricThroughput:
		return mt.ThroughputTPS
	case MetricProcLatency:
		return mt.ProcLatencyMS
	case MetricE2ELatency:
		return mt.E2ELatencyMS
	default:
		return 0
	}
}

// Label extracts the binary classification target. Following the natural
// encoding, MetricBackpressure is true when backpressure occurred and
// MetricSuccess is true when the query succeeded. (The paper's RO flag is
// inverted — RO=0 on occurrence; we keep booleans meaningful and translate
// at reporting time.)
func (m Metric) Label(mt *sim.Metrics) bool {
	switch m {
	case MetricBackpressure:
		return mt.Backpressured
	case MetricSuccess:
		return mt.Success
	default:
		return false
	}
}

// Cost returns the metric's bit of a placement.CostSet; CostSet's bits
// are in Metric order.
func (m Metric) Cost() placement.CostSet { return placement.CostThroughput << m }

// Field returns the metric's field of a predicted cost vector: value for a
// regression metric, label for a binary one, the other nil. It is the
// one place a metric is mapped to its PredCosts field.
func (m Metric) Field(c *placement.PredCosts) (value *float64, label *bool) {
	switch m {
	case MetricThroughput:
		return &c.ThroughputTPS, nil
	case MetricProcLatency:
		return &c.ProcLatencyMS, nil
	case MetricE2ELatency:
		return &c.E2ELatencyMS, nil
	case MetricBackpressure:
		return nil, &c.Backpressured
	}
	return nil, &c.Success
}

// SetRaw sets the metric's field of c from one model's raw output (see
// CostModel.PredictRaw): the value of a regression metric, or for a
// binary one the positive class when its probability is above 0.5.
func (m Metric) SetRaw(c *placement.PredCosts, raw float64) {
	if v, l := m.Field(c); v != nil {
		*v = raw
	} else {
		*l = raw > 0.5
	}
}

// TrainConfig controls model training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Patience is the early-stopping patience in epochs on the
	// validation loss; 0 disables early stopping.
	Patience int
	// Workers bounds the data-parallel training workers per model.
	// <= 0 selects GOMAXPROCS for a single Train or FineTune, and for
	// TrainPredictor an equal share of the training budget among the
	// fits it runs at once — one worker per fit once the fits fill the
	// budget (see SetTrainBudget). The trained weights are bit-identical
	// for every Workers value: minibatches are partitioned into a fixed
	// set of gradient chunks that are accumulated and reduced in a
	// worker-independent order (see fit). Gradient work tops out at the
	// chunk count (8) per model, while validation passes shard up to the
	// full Workers value. Actual concurrency is additionally capped by
	// the process-wide SetTrainBudget semaphore.
	Workers int
	// Hidden overrides the GNN hidden width (0 = default).
	Hidden int
	// Mode selects the featurization (Exp 7a ablation).
	Mode FeatureMode
	// Traditional selects the ablation message passing (Exp 7b).
	Traditional bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Observer, when set, receives one EpochStats record per completed
	// training epoch. It is called synchronously from the goroutine
	// driving this model's fit loop, in epoch order; TrainPredictor runs
	// the fits of different metrics and members concurrently and invokes
	// it from each, so observers must be safe for concurrent use.
	Observer func(EpochStats)
	// Member is the ensemble member ordinal carried into EpochStats;
	// single-model training leaves it 0.
	Member int
}

// EpochStats is the per-epoch training record emitted to
// TrainConfig.Observer — the unit of the costream-train run log.
type EpochStats struct {
	// Metric names the cost metric whose model is training.
	Metric string `json:"metric"`
	// Member is the ensemble member ordinal (0 for single models).
	Member int `json:"member"`
	// Epoch is the 0-based epoch ordinal.
	Epoch int `json:"epoch"`
	// TrainLoss is the mean minibatch training loss of the epoch.
	TrainLoss float64 `json:"train_loss"`
	// ValLoss is the monitored loss: the validation loss when HasVal is
	// set (a validation split existed), otherwise the training loss.
	ValLoss float64 `json:"val_loss"`
	HasVal  bool    `json:"has_val"`
	// DurationNS is the wall time of the epoch (gradient passes plus
	// validation).
	DurationNS int64 `json:"duration_ns"`
	// GradNS, ReduceNS, StepNS and ValNS split DurationNS by stage: the
	// slots' forward and backward passes (summed over the workers that ran
	// them, so above wall time when they overlap), the gradient
	// reduction, the optimizer step with the training-mirror refresh, and
	// the validation pass. Each is clocked once per batch or slot, never
	// per sample.
	GradNS   int64 `json:"grad_ns"`
	ReduceNS int64 `json:"reduce_ns"`
	StepNS   int64 `json:"step_ns"`
	ValNS    int64 `json:"val_ns"`
	// Allocs is the process-global heap-allocation count delta across the
	// epoch — an upper bound on the epoch's own allocations when other
	// goroutines (e.g. the fits of other metrics and members a predictor
	// trains alongside) run concurrently.
	Allocs uint64 `json:"allocs"`
	// Best reports that this epoch improved the monitored loss (its
	// weights became the restore point).
	Best bool `json:"best"`
}

// DefaultTrainConfig returns the training setup used by the experiments.
func DefaultTrainConfig(seed int64) TrainConfig {
	return TrainConfig{
		Epochs:    40,
		BatchSize: 16,
		LR:        3e-3,
		Seed:      seed,
		Patience:  8,
	}
}

// CostModel is one trained COSTREAM model for one cost metric.
type CostModel struct {
	Metric Metric
	Feat   Featurizer
	Net    *gnn.Model
}

type sample struct {
	graph *gnn.Graph
	plan  *gnn.Plan // flow structure, derived once at featurization time
	y     float64   // log1p cost for regression, 0/1 for classification
	w     float64   // loss weight (class balancing)
}

// sampleLoss records the forward pass and loss of one sample on the tape
// through the given net (the model itself, or a gradient shadow of it).
func sampleLoss(net *gnn.Model, metric Metric, t *nn.Tape, sc *gnn.Scratch, s sample) (*nn.Node, error) {
	out, err := net.ForwardPlanned(t, s.graph, s.plan, sc)
	if err != nil {
		return nil, err
	}
	var l *nn.Node
	if metric.IsRegression() {
		// Targets are already in log1p space, so squared error here is
		// exactly the paper's MSLE.
		l = nn.MSLELoss(t, out, math.Expm1(s.y))
	} else {
		l = nn.BCEWithLogitsLoss(t, out, s.y)
	}
	if s.w != 1 {
		l = t.Scale(l, s.w)
	}
	return l, nil
}

// trainWorker owns the reusable per-goroutine state of the data-parallel
// training loop: a training tape arena, an inference tape for validation
// passes (no gradient buffers), and the GNN scratch. Steady-state, a
// worker processes a sample without heap allocations.
type trainWorker struct {
	tape    *nn.Tape
	itape   *nn.Tape
	scratch *gnn.Scratch
}

func newTrainWorker() *trainWorker {
	return &trainWorker{tape: nn.NewTape(), itape: nn.NewInferenceTape(), scratch: gnn.NewScratch()}
}

// maxGradSlots is the fixed number of gradient-reduction chunks a
// minibatch is partitioned into. The partition depends only on the batch
// size — never on the worker count — so the summation tree, and with it
// the trained weights, are identical for any TrainConfig.Workers value.
// Eight chunks bound the per-batch reduction traffic (one pass over the
// parameters per chunk) while still feeding eight-way parallelism per
// model; a predictor parallelizes further across its (metric, member)
// fits under the shared training budget.
const maxGradSlots = 8

// gradSlot is one reduction chunk's private gradient accumulator: a
// weight-sharing shadow of the model whose gradient buffers belong to
// this chunk alone (chunk 0's "shadow" is the model itself, so its
// gradients land in the optimizer's buffers without a copy). Chunk c of
// a batch always holds samples c, c+C, c+2C, ... (C = chunk count),
// processed in that order, and the chunks are reduced in index order no
// matter which worker ran them.
type gradSlot struct {
	net   *gnn.Model
	grads [][]float64
	timed bool // clock runSlot into ns (set when an Observer listens)
	loss  float64
	ns    int64
	err   error
}

// runSlot processes one reduction chunk: for each of the chunk's samples
// it resets the worker's tape arena, records forward + loss, and
// backpropagates into the chunk's gradient buffers (left zeroed by the
// previous reduceSlots). inv is the 1/batch-size averaging factor;
// nSlots the batch's chunk count.
func (w *trainWorker) runSlot(slot *gradSlot, idx, nSlots int, metric Metric, batch []sample, inv float64) {
	tok := acquireTrainToken()
	defer releaseTrainToken(tok)
	slot.loss, slot.err = 0, nil
	var t0 time.Time
	if slot.timed {
		t0 = time.Now()
	}
	for j := idx; j < len(batch); j += nSlots {
		w.tape.Reset()
		l, err := sampleLoss(slot.net, metric, w.tape, w.scratch, batch[j])
		if err != nil {
			slot.err = err
			return
		}
		// Average gradients over the batch.
		l = w.tape.Scale(l, inv)
		slot.loss += l.Data[0]
		w.tape.Backward(l)
	}
	if slot.timed {
		slot.ns = time.Since(t0).Nanoseconds()
	}
}

// shard runs fn(worker index, element index) for indices 0..n-1, strided
// across the workers. With one worker it degenerates to a plain loop.
func shard(workers int, n int, fn func(w, j int)) {
	if workers == 1 || n <= 1 {
		for j := 0; j < n; j++ {
			fn(0, j)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += workers {
				fn(w, j)
			}
		}(w)
	}
	wg.Wait()
}

// meanLoss computes the mean loss over the samples on inference tapes (no
// gradient buffers, no backward records), sharded across the workers.
// Per-sample losses are summed in sample-index order, so the result is
// independent of the worker count.
func meanLoss(cm *CostModel, samples []sample, workers []*trainWorker) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	losses := make([]float64, len(samples))
	errs := make([]error, len(workers))
	shard(len(workers), len(samples), func(w, j int) {
		if errs[w] != nil {
			return
		}
		tok := acquireTrainToken()
		defer releaseTrainToken(tok)
		wk := workers[w]
		wk.itape.Reset()
		l, err := sampleLoss(cm.Net, cm.Metric, wk.itape, wk.scratch, samples[j])
		if err != nil {
			errs[w] = err
			return
		}
		losses[j] = l.Data[0]
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(len(samples)), nil
}

// reduceSlots folds the shadow slots' gradients into dst in slot (=
// sample) order, consuming them: every slot buffer is left zeroed for the
// next batch. dst already holds chunk 0's gradients — the model's own
// buffers, which fit zeroes after each optimizer step. Because each
// parameter receives contributions strictly in slot order, the reduction
// is bit-identical no matter which workers filled the slots.
func reduceSlots(dst [][]float64, slots []*gradSlot) {
	for k, d := range dst {
		for _, sl := range slots {
			nn.AddAndClear(d, sl.grads[k])
		}
	}
}

// Train trains a COSTREAM model for the metric on the training corpus,
// early-stopping on the validation corpus.
func Train(train, val *dataset.Corpus, metric Metric, cfg TrainConfig) (*CostModel, error) {
	trainRecs, valRecs, err := featurizeSplit(cfg.Mode, train, val)
	if err != nil {
		return nil, err
	}
	return trainFromSamples(metric, samplesFromRecords(trainRecs, metric), samplesFromRecords(valRecs, metric), cfg)
}

// trainFromSamples trains a fresh model on pre-featurized samples. It owns
// the sample slices (fit shuffles the training slice in place), so callers
// sharing samples across models must pass copies. This is the single
// training entry under Train and both TrainPredictor paths.
func trainFromSamples(metric Metric, trainSamples, valSamples []sample, cfg TrainConfig) (*CostModel, error) {
	feat := Featurizer{Mode: cfg.Mode}
	gcfg := gnn.DefaultConfig(feat.FeatDims())
	if cfg.Hidden > 0 {
		gcfg.Hidden = cfg.Hidden
	}
	gcfg.Traditional = cfg.Traditional
	net, err := gnn.New(gcfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cm := &CostModel{Metric: metric, Feat: feat, Net: net}
	if err := cm.fit(trainSamples, valSamples, cfg); err != nil {
		return nil, err
	}
	return cm, nil
}

// stageClock splits an epoch's wall time into EpochStats stages. Off (no
// Observer), it never reads the clock.
type stageClock struct {
	on   bool
	last time.Time
}

// start marks the beginning of a stage.
func (c *stageClock) start() {
	if c.on {
		c.last = time.Now()
	}
}

// lap adds the time since start (or the previous lap) to *ns.
func (c *stageClock) lap(ns *int64) {
	if c.on {
		now := time.Now()
		*ns += now.Sub(c.last).Nanoseconds()
		c.last = now
	}
}

// fit runs the minibatch Adam loop with optional early stopping.
//
// Minibatches are data-parallel: each batch is partitioned into a fixed
// number of stride chunks (maxGradSlots), every chunk accumulates its
// samples' gradients into a private buffer in sample order — chunk 0
// into the optimizer's own buffers, the others into shadows — and the
// shadows are reduced into the optimizer's buffers in chunk order before
// every Adam step. The partition and both orders depend only on the
// batch — never on cfg.Workers — so the trained weights are bit-identical
// for any worker count.
//
// Where the AVX kernels are available the affine forward, the layer
// backward, the reduction and the Adam update run on them, bit for bit
// like the Go loops (see internal/nn): the forward needs each layer's
// weights transposed, a mirror that exists only for the duration of fit
// and is refreshed after every step.
func (cm *CostModel) fit(trainSamples, valSamples []sample, cfg TrainConfig) error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return fmt.Errorf("core: invalid training config %+v", cfg)
	}
	if len(trainSamples) == 0 {
		return fmt.Errorf("core: no usable training traces for %v", cm.Metric)
	}
	params, grads := cm.Net.Params()
	opt := nn.NewAdam(cfg.LR, params, grads)
	opt.ZeroGrads() // chunk 0 accumulates into grads; start from nothing
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))

	nSlots := min(maxGradSlots, cfg.BatchSize, len(trainSamples))
	nw := cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	// Gradient workers are capped by the chunk count; validation has no
	// reduction and may use the full worker allowance, so size the pool
	// for whichever is larger.
	nwFit := min(nw, nSlots)
	if len(valSamples) == 0 {
		nw = nwFit
	}
	workers := make([]*trainWorker, nw)
	for i := range workers {
		workers[i] = newTrainWorker()
	}
	// Mirrors first: the shadows made next share them like the weights.
	cm.Net.RefreshMirrors()
	defer cm.Net.DropMirrors()
	timed := cfg.Observer != nil
	slots := make([]*gradSlot, nSlots)
	slots[0] = &gradSlot{net: cm.Net, grads: grads, timed: timed}
	for i := 1; i < nSlots; i++ {
		shadow := cm.Net.GradShadow()
		_, sg := shadow.Params()
		slots[i] = &gradSlot{net: shadow, grads: sg, timed: timed}
	}

	best := math.Inf(1)
	bestParams := snapshot(params)
	badEpochs := 0
	var ms runtime.MemStats
	clk := stageClock{on: timed}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats := EpochStats{Metric: cm.Metric.String(), Member: cfg.Member, Epoch: epoch}
		var epochStart time.Time
		var allocsStart uint64
		if timed {
			runtime.ReadMemStats(&ms)
			allocsStart = ms.Mallocs
			epochStart = time.Now()
		}
		rng.Shuffle(len(trainSamples), func(i, j int) {
			trainSamples[i], trainSamples[j] = trainSamples[j], trainSamples[i]
		})
		var epochLoss float64
		for start := 0; start < len(trainSamples); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(trainSamples))
			batch := trainSamples[start:end]
			inv := 1 / float64(len(batch))
			live := min(nSlots, len(batch))
			shard(nwFit, live, func(w, c int) {
				workers[w].runSlot(slots[c], c, live, cm.Metric, batch, inv)
			})
			for _, slot := range slots[:live] {
				if slot.err != nil {
					return slot.err
				}
				epochLoss += slot.loss
				stats.GradNS += slot.ns
			}
			clk.start()
			reduceSlots(grads, slots[1:live])
			clk.lap(&stats.ReduceNS)
			opt.Step()
			opt.ZeroGrads()
			cm.Net.RefreshMirrors()
			clk.lap(&stats.StepNS)
		}
		stats.TrainLoss = epochLoss / float64((len(trainSamples)+cfg.BatchSize-1)/cfg.BatchSize)
		stats.ValLoss = stats.TrainLoss
		stats.HasVal = len(valSamples) > 0
		if stats.HasVal {
			clk.start()
			vl, err := meanLoss(cm, valSamples, workers)
			if err != nil {
				return err
			}
			clk.lap(&stats.ValNS)
			stats.ValLoss = vl
		}
		if cfg.Logf != nil {
			cfg.Logf("metric=%v epoch=%d loss=%.4f", cm.Metric, epoch, stats.ValLoss)
		}
		stats.Best = stats.ValLoss < best-1e-6
		if timed {
			runtime.ReadMemStats(&ms)
			stats.Allocs = ms.Mallocs - allocsStart
			stats.DurationNS = time.Since(epochStart).Nanoseconds()
			cfg.Observer(stats)
		}
		if stats.Best {
			best = stats.ValLoss
			copyInto(bestParams, params)
			badEpochs = 0
		} else if cfg.Patience > 0 {
			badEpochs++
			if badEpochs >= cfg.Patience {
				break
			}
		}
	}
	restore(params, bestParams)
	return nil
}

// FineTune continues training on additional traces (few-shot learning,
// Exp 5b). The model is updated in place; an Ensemble that has predicted
// keeps its stack of the old weights, so fine-tune an ensemble member
// only through a clone.
func (cm *CostModel) FineTune(extra *dataset.Corpus, cfg TrainConfig) error {
	recs, err := featurizeCorpus(&cm.Feat, extra)
	if err != nil {
		return err
	}
	return cm.fit(samplesFromRecords(recs, cm.Metric), nil, cfg)
}

func snapshot(params [][]float64) [][]float64 {
	cp := make([][]float64, len(params))
	for i, p := range params {
		cp[i] = append([]float64(nil), p...)
	}
	return cp
}

func copyInto(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}

func restore(params, saved [][]float64) {
	for i := range params {
		copy(params[i], saved[i])
	}
}

// PredictRaw returns the model's raw output for a placement: the predicted
// cost value for regression metrics, or the positive-class probability for
// classification metrics. The pass runs on a pooled inference tape — the
// training-time forward without gradient buffers — so it serves directed
// and traditional models alike.
func (cm *CostModel) PredictRaw(q *stream.Query, c *hardware.Cluster, p sim.Placement) (float64, error) {
	g, err := cm.Feat.BuildGraph(q, c, p)
	if err != nil {
		return 0, err
	}
	plan, err := gnn.NewPlan(g)
	if err != nil {
		return 0, err
	}
	w := predictPool.Get().(*trainWorker)
	defer predictPool.Put(w)
	w.itape.Reset()
	out, err := cm.Net.ForwardPlanned(w.itape, g, plan, w.scratch)
	if err != nil {
		return 0, err
	}
	return cm.headTransform(out.Data[0]), nil
}

// predictPool lends single-model predictions the inference tape and GNN
// scratch of a worker like meanLoss's.
var predictPool = sync.Pool{New: func() any { return newTrainWorker() }}

// headTransform maps the network's raw output into metric space.
func (cm *CostModel) headTransform(out float64) float64 {
	if cm.Metric.IsRegression() {
		return nn.ExpM1(out)
	}
	return nn.SigmoidScalar(out)
}

// NewScoreSession implements placement.Predictor over the inference tape:
// each candidate is one PredictRaw, which sets the model's metric, and
// every other cost gets the untrained default (Success true, everything
// else zero). It is the only scoring path of a model the packed kernel
// cannot run, such as traditional message passing (Exp 7b).
func (cm *CostModel) NewScoreSession(q *stream.Query, c *hardware.Cluster) (placement.TileScorer, error) {
	return placement.PredictorFunc(cm.predictCosts).NewScoreSession(q, c)
}

// predictCosts is the model's cost vector for one placement.
func (cm *CostModel) predictCosts(q *stream.Query, c *hardware.Cluster, p sim.Placement) (placement.PredCosts, error) {
	raw, err := cm.PredictRaw(q, c, p)
	if err != nil {
		return placement.PredCosts{}, err
	}
	costs := placement.PredCosts{Success: true}
	cm.Metric.SetRaw(&costs, raw)
	return costs, nil
}
