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

// TrainConfig controls model training. Each fit — the one model of a
// Train or FineTune call, or one (metric, member) of TrainPredictor —
// runs its minibatches on one goroutine and holds one token of the
// process-wide training budget, GOMAXPROCS fits, for its whole run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Patience is the early-stopping patience in epochs on the
	// validation loss; 0 disables early stopping.
	Patience int
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
	// member is the ensemble member ordinal carried into EpochStats;
	// TrainPredictor sets it per fit, single-model training leaves it 0.
	member int
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
	// GradNS, ReduceNS, StepNS and ValNS partition DurationNS by stage:
	// the chunks' forward and backward passes, folding the gradient
	// shadow into the optimizer's buffers, the optimizer step (one pass
	// per layer that updates the weights, clears the gradients and writes
	// the training mirror), and the validation pass. Each is clocked
	// once per chunk or batch, never per sample; only the shuffle and the
	// epoch's bookkeeping fall outside them.
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

// tapes is the whole workspace of a training runner, or of one pooled
// prediction: a training tape arena, an inference tape for validation
// passes (no gradient buffers), the GNN scratch, and the slab from which
// a fit carves everything it holds beside its model's weights — the
// gradients of the model and of its shadow, the training mirrors and
// Adam's moments (newFitState). A runner hands one tapes to each of its
// fits in turn: nothing in it outlives a fit but its grown buffers,
// whose contents the next fit clears wherever it needs +0 or overwrites,
// so a fit after the first runs on warm arenas and allocates only the
// model it returns. Steady-state, a sample runs through them without
// heap allocations.
//
// Every tapes comes from tapesPool and goes back to it, so a process
// keeps at most a few (one per runner that ran at once) between calls,
// and the garbage collector empties the pool of them when they go
// unused: a model holds its weights alone, and no buffer of a finished
// fit outlives two collections.
type tapes struct {
	tape    *nn.Tape
	itape   *nn.Tape
	scratch *gnn.Scratch
	slab    []float64 // a fit's state, grown to the largest model seen
}

func newTapes() *tapes {
	return &tapes{tape: nn.NewTape(), itape: nn.NewInferenceTape(), scratch: gnn.NewScratch()}
}

// tapesPool lends every fit (Train, FineTune, each runner of
// TrainPredictor) and every single-model prediction (PredictRaw) its
// tapes.
var tapesPool = sync.Pool{New: func() any { return newTapes() }}

// maxGradChunks bounds the stride chunks a minibatch is partitioned
// into: with C = min(maxGradChunks, batch size) chunks, chunk c holds
// samples c, c+C, c+2C, ... Each chunk sums its samples' gradients from
// zero and the chunk sums are added in chunk order, so the partition
// fixes the summation order and with it the trained weight bits that
// TestTrainWeightsGolden pins.
const maxGradChunks = 8

// runChunk processes chunk c of a batch split into chunks stride chunks:
// for each of the chunk's samples it resets the training tape, records
// forward + loss through net (the model itself, or the fit's gradient
// shadow) and backpropagates into net's gradient buffers. inv is the
// 1/batch-size averaging factor. It returns the chunk's summed loss.
func (tp *tapes) runChunk(net *gnn.Model, metric Metric, batch []sample, c, chunks int, inv float64) (float64, error) {
	var loss float64
	for j := c; j < len(batch); j += chunks {
		tp.tape.Reset()
		l, err := sampleLoss(net, metric, tp.tape, tp.scratch, batch[j])
		if err != nil {
			return 0, err
		}
		// Average gradients over the batch.
		l = tp.tape.Scale(l, inv)
		loss += l.Data[0]
		tp.tape.Backward(l)
	}
	return loss, nil
}

// meanLoss computes the mean loss over the samples on the inference tape
// (no gradient buffers, no backward records), summing the per-sample
// losses in sample order.
func meanLoss(cm *CostModel, samples []sample, tp *tapes) (float64, error) {
	var sum float64
	for _, s := range samples {
		tp.itape.Reset()
		l, err := sampleLoss(cm.Net, cm.Metric, tp.itape, tp.scratch, s)
		if err != nil {
			return 0, err
		}
		sum += l.Data[0]
	}
	return sum / float64(len(samples)), nil
}

// Train trains a COSTREAM model for the metric on the training corpus,
// early-stopping on the validation corpus.
func Train(train, val *dataset.Corpus, metric Metric, cfg TrainConfig) (*CostModel, error) {
	trainRecs, valRecs, err := featurizeSplit(cfg.Mode, train, val)
	if err != nil {
		return nil, err
	}
	tp := tapesPool.Get().(*tapes)
	defer tapesPool.Put(tp)
	return trainFromSamples(tp, metric, samplesFromRecords(trainRecs, metric), samplesFromRecords(valRecs, metric), cfg)
}

// trainFromSamples trains a fresh model on pre-featurized samples. It owns
// the sample slices (fit shuffles the training slice in place), so callers
// sharing samples across models must pass copies. This is the single
// training entry under Train and both TrainPredictor paths; tp is the
// caller's tape state, which the fit uses and leaves warm.
func trainFromSamples(tp *tapes, metric Metric, trainSamples, valSamples []sample, cfg TrainConfig) (*CostModel, error) {
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
	if err := cm.fit(tp, trainSamples, valSamples, cfg); err != nil {
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

// validate refuses a config no fit can train with, naming the field.
func (cfg *TrainConfig) validate() error {
	switch {
	case cfg.Epochs <= 0:
		return fmt.Errorf("core: training config: Epochs %d, want > 0", cfg.Epochs)
	case cfg.BatchSize <= 0:
		return fmt.Errorf("core: training config: BatchSize %d, want > 0", cfg.BatchSize)
	case !(cfg.LR > 0) || math.IsInf(cfg.LR, 1):
		return fmt.Errorf("core: training config: LR %v, want a finite rate > 0", cfg.LR)
	case cfg.Hidden < 0:
		return fmt.Errorf("core: training config: Hidden %d, want >= 0 (0 = default)", cfg.Hidden)
	}
	return nil
}

// fit runs the minibatch Adam loop with optional early stopping, on the
// calling goroutine and under one training-budget token, on the tape
// state tp (see tapes).
//
// Each batch is partitioned into stride chunks (maxGradChunks) that run
// in chunk order: chunk 0 accumulates its samples' gradients into the
// optimizer's own buffers, and every later chunk into the fit's one
// gradient shadow, which is folded into the optimizer's buffers right
// after the chunk. Every gradient element thus receives the chunk sums
// in chunk order before the Adam step. The fold skips the shadow's layers
// that the chunk never reached (fitState.fold): they hold +0, and adding
// it would change no bit.
//
// Where the AVX kernels are available the affine forward, the layer
// backward, the fold and the Adam update run on them, bit for bit like
// the Go loops (see internal/nn): the forward needs each layer's weights
// transposed, a mirror that exists only for the duration of fit and that
// the Adam step writes as it updates the weights. The gradient buffers
// live exactly as long: fit attaches both to every layer before its
// first batch, on storage carved from tp, and drops both when it
// returns, on success or error (newFitState, fitState.release), and the
// Adam step clears the gradients as it reads them, so a model outside a
// fit holds its weights alone.
//
// The weights end at the epoch of the best monitored loss. They are
// copied aside only when an epoch before the last becomes the best: when
// the last epoch run is the best one, the weights already are its. A fit
// in which no epoch reaches a finite monitored loss fails and leaves the
// weights where training left them; a caller that keeps the model
// (FineTune) restores them.
func (cm *CostModel) fit(tp *tapes, trainSamples, valSamples []sample, cfg TrainConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(trainSamples) == 0 {
		return fmt.Errorf("core: no usable training traces for %v", cm.Metric)
	}
	trainBudget <- struct{}{}
	defer func() { <-trainBudget }()
	params := cm.Net.Params()
	// Chunk 0 accumulates into the model's own gradients, from +0.
	st := tp.newFitState(cm.Net, cfg.LR)
	defer st.release()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED))

	best := math.Inf(1)
	atBest := false            // the weights are the best epoch's
	var bestParams [][]float64 // a copy of them, once an epoch before the last is best
	badEpochs := 0
	var ms runtime.MemStats
	timed := cfg.Observer != nil
	clk := stageClock{on: timed}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		stats := EpochStats{Metric: cm.Metric.String(), Member: cfg.member, Epoch: epoch}
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
		clk.start()
		var epochLoss float64
		for start := 0; start < len(trainSamples); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(trainSamples))
			batch := trainSamples[start:end]
			inv := 1 / float64(len(batch))
			chunks := min(maxGradChunks, len(batch))
			for c := range chunks {
				net := cm.Net
				if c > 0 {
					net = st.shadow
				}
				loss, err := tp.runChunk(net, cm.Metric, batch, c, chunks, inv)
				if err != nil {
					return err
				}
				epochLoss += loss
				clk.lap(&stats.GradNS)
				if c > 0 {
					st.fold()
					clk.lap(&stats.ReduceNS)
				}
			}
			st.opt.Step()
			clk.lap(&stats.StepNS)
		}
		stats.TrainLoss = epochLoss / float64((len(trainSamples)+cfg.BatchSize-1)/cfg.BatchSize)
		stats.ValLoss = stats.TrainLoss
		stats.HasVal = len(valSamples) > 0
		if stats.HasVal {
			vl, err := meanLoss(cm, valSamples, tp)
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
			// Clock the epoch before ReadMemStats: it stops the world,
			// and the wait for a concurrent fit to reach a safe point
			// belongs to no stage.
			stats.DurationNS = time.Since(epochStart).Nanoseconds()
			runtime.ReadMemStats(&ms)
			stats.Allocs = ms.Mallocs - allocsStart
			cfg.Observer(stats)
		}
		atBest = stats.Best
		if stats.Best {
			best = stats.ValLoss
			if epoch < cfg.Epochs-1 {
				if bestParams == nil {
					bestParams = snapshot(params)
				} else {
					copyInto(bestParams, params)
				}
			}
			badEpochs = 0
		} else if cfg.Patience > 0 {
			badEpochs++
			if badEpochs >= cfg.Patience {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		return fmt.Errorf("core: no epoch of %v reached a finite loss", cm.Metric)
	}
	if !atBest {
		copyInto(params, bestParams)
	}
	return nil
}

// fitState is what a fit holds beside its model's weights, and only while
// it runs: gradient buffers and a training mirror on every layer, the one
// gradient shadow the chunks after the first backpropagate into, and the
// optimizer. layers and shadows are the model's and the shadow's Linears,
// which pair index by index. All of its buffers are carved from the
// slab of the tapes that made it, which lends them for the fit alone.
type fitState struct {
	shadow          *gnn.Model
	layers, shadows []*nn.Linear
	opt             *nn.Adam
}

// newFitState attaches gradient buffers cleared to +0 and a training
// mirror to every layer of net, makes the gradient shadow, which shares
// the mirrors like the weights, and attaches its own cleared gradients,
// then makes the Adam optimizer at rate lr on cleared moments. Every
// buffer is carved (nn.Carve) from tp's slab, grown first to what net
// needs; a slab already that large, as a runner's is from its second fit
// on, is reused as it is. Where the AVX kernels are unavailable a layer
// takes no mirror (nn.Linear.MirrorLen is 0), and the model and shadow
// run the tape's Go loops.
func (tp *tapes) newFitState(net *gnn.Model, lr float64) fitState {
	layers := net.Linears()
	need := nn.AdamMoments(layers)
	for _, l := range layers {
		// The model's and the shadow's gradients, and the mirror.
		need += 2*nn.Lines(len(l.W)) + 2*nn.Lines(len(l.B)) + nn.Lines(l.MirrorLen())
	}
	tp.slab = nn.Grow(tp.slab, need)
	rest := tp.slab
	var gw, gb, mirror []float64
	for _, l := range layers {
		gw, rest = nn.Carve(rest, len(l.W))
		gb, rest = nn.Carve(rest, len(l.B))
		mirror, rest = nn.Carve(rest, l.MirrorLen())
		l.AttachGrads(gw, gb)
		l.AttachMirror(mirror)
	}
	shadow := net.GradShadow()
	shadows := shadow.Linears()
	for _, s := range shadows {
		gw, rest = nn.Carve(rest, len(s.W))
		gb, rest = nn.Carve(rest, len(s.B))
		s.AttachGrads(gw, gb)
	}
	return fitState{shadow: shadow, layers: layers, shadows: shadows, opt: nn.NewAdam(lr, layers, rest)}
}

// fold adds the shadow's gradients into the model's and zeroes the
// shadow's, layer by layer. A chunk reaches the encoders and update MLPs
// of the node kinds its graphs hold and the readout; a layer it did not
// reach holds +0 and is skipped (nn.Linear.FoldGrads), which gives the
// bits of folding it.
func (s *fitState) fold() {
	for i, l := range s.layers {
		l.FoldGrads(s.shadows[i])
	}
}

// release drops every layer's gradient buffers and training mirror: the
// model holds its weights alone again, and the slab they were carved
// from is free for the tapes' next fit.
func (s *fitState) release() {
	for _, l := range s.layers {
		l.DropGrads()
		l.DropMirror()
	}
}

// FineTune continues training on additional traces (few-shot learning,
// Exp 5b). The model is updated in place; an Ensemble that has predicted
// keeps its stack of the old weights, so fine-tune an ensemble member
// only through a clone. A fine-tune that fails leaves the weights bit for
// bit where they started.
func (cm *CostModel) FineTune(extra *dataset.Corpus, cfg TrainConfig) error {
	recs, err := featurizeCorpus(&cm.Feat, extra)
	if err != nil {
		return err
	}
	params := cm.Net.Params()
	start := snapshot(params)
	tp := tapesPool.Get().(*tapes)
	defer tapesPool.Put(tp)
	if err := cm.fit(tp, samplesFromRecords(recs, cm.Metric), nil, cfg); err != nil {
		copyInto(params, start)
		return err
	}
	return nil
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

// PredictRaw returns the model's raw output for a placement: the predicted
// cost value for regression metrics, or the positive-class probability for
// classification metrics. The pass runs on a pooled inference tape — the
// training-time forward without gradient buffers — so it serves directed
// and traditional models alike.
func (cm *CostModel) PredictRaw(a *stream.Analysis, c *hardware.Cluster, p sim.Placement) (float64, error) {
	g, plan, err := cm.Feat.BuildGraph(a, c, p)
	if err != nil {
		return 0, err
	}
	tp := tapesPool.Get().(*tapes)
	defer tapesPool.Put(tp)
	tp.itape.Reset()
	out, err := cm.Net.ForwardPlanned(tp.itape, g, plan, tp.scratch)
	if err != nil {
		return 0, err
	}
	return cm.headTransform(out.Data[0]), nil
}

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
func (cm *CostModel) NewScoreSession(a *stream.Analysis, k hardware.Checked) (placement.TileScorer, error) {
	return placement.PredictorFunc(cm.predictCosts).NewScoreSession(a, k)
}

// predictCosts is the model's cost vector for one placement.
func (cm *CostModel) predictCosts(a *stream.Analysis, k hardware.Checked, p sim.Placement) (placement.PredCosts, error) {
	raw, err := cm.PredictRaw(a, k.Cluster(), p)
	if err != nil {
		return placement.PredCosts{}, err
	}
	costs := placement.PredCosts{Success: true}
	cm.Metric.SetRaw(&costs, raw)
	return costs, nil
}
