// Package costream is a from-scratch Go implementation of COSTREAM
// (Heinrich et al., ICDE 2024): a learned, zero-shot cost model for the
// initial placement of distributed stream processing operators on
// heterogeneous edge-cloud hardware.
//
// The package exposes the high-level workflow; the building blocks live in
// internal packages (query algebra, hardware model, execution simulator,
// neural network stack, GNN cost models, placement optimizer, benchmark
// generator, experiment harness):
//
//	// 1. Describe a streaming query.
//	b := costream.NewQueryBuilder()
//	src := b.AddSource(1000, []costream.DataType{costream.TypeInt, costream.TypeDouble})
//	f := b.AddFilter(costream.FilterGT, costream.TypeInt, 0.5)
//	sink := b.AddSink()
//	b.Chain(src, f, sink)
//	q, _ := b.Build()
//
//	// 2. Describe the hardware landscape.
//	cluster := &costream.Cluster{Hosts: []*costream.Host{...}}
//
//	// 3. Train a cost model on generated traces (or load a corpus).
//	corpus, _ := costream.GenerateCorpus(2000, 42)
//	model, _ := costream.TrainModel(corpus, costream.DefaultTrainOptions())
//
//	// 4. Predict costs for a placement, or optimize one.
//	costs, _ := model.PredictCosts(q, cluster, placement)
//	best, predicted, _ := model.OptimizePlacement(q, cluster, 16, costream.MinProcLatency, 7)
package costream

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"costream/internal/artifact"
	"costream/internal/controlplane"
	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/fleet"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// Re-exported query algebra types.
type (
	// Query is a DAG-shaped streaming query plan.
	Query = stream.Query
	// QueryBuilder assembles query plans fluently.
	QueryBuilder = stream.Builder
	// DataType enumerates tuple attribute types.
	DataType = stream.DataType
	// FilterFn enumerates filter comparison functions.
	FilterFn = stream.FilterFn
	// AggFn enumerates aggregation functions.
	AggFn = stream.AggFn
	// Window is a window specification for joins and aggregations.
	Window = stream.Window
	// Operator is one vertex of a query plan.
	Operator = stream.Operator
)

// Re-exported data type constants.
const (
	TypeInt    = stream.TypeInt
	TypeString = stream.TypeString
	TypeDouble = stream.TypeDouble
)

// Re-exported filter functions.
const (
	FilterLT         = stream.FilterLT
	FilterGT         = stream.FilterGT
	FilterLE         = stream.FilterLE
	FilterGE         = stream.FilterGE
	FilterNE         = stream.FilterNE
	FilterStartsWith = stream.FilterStartsWith
	FilterEndsWith   = stream.FilterEndsWith
)

// Re-exported aggregation functions.
const (
	AggMin  = stream.AggMin
	AggMax  = stream.AggMax
	AggMean = stream.AggMean
	AggAvg  = stream.AggAvg
)

// Re-exported window kinds.
const (
	WindowSliding    = stream.WindowSliding
	WindowTumbling   = stream.WindowTumbling
	WindowCountBased = stream.WindowCountBased
	WindowTimeBased  = stream.WindowTimeBased
)

// Re-exported hardware and execution types.
type (
	// Host is one compute node described by the four transferable
	// hardware features (CPU %, RAM MB, outgoing latency ms, outgoing
	// bandwidth Mbit/s).
	Host = hardware.Host
	// Cluster is the hardware landscape available for placement.
	Cluster = hardware.Cluster
	// Placement maps operator index to host index.
	Placement = sim.Placement
	// Metrics are the five measured cost metrics of an execution.
	Metrics = sim.Metrics
	// Costs are predicted cost metrics for a placement candidate.
	Costs = placement.PredCosts
	// Corpus is a collection of executed query traces used for training.
	Corpus = dataset.Corpus
	// Objective selects the placement optimization target.
	Objective = placement.Objective
)

// Re-exported placement search engine types (Section V). A SearchStrategy
// streams candidate placements into a shared budgeted search core that
// scores them with the cost model; see Model.OptimizePlacementSearchCtx.
type (
	// SearchStrategy is a pluggable placement search algorithm.
	SearchStrategy = placement.Strategy
	// SearchBudget bounds the candidates scored and rounds run by one
	// search; budgets are directly comparable across strategies.
	SearchBudget = placement.Budget
	// SearchResult is the outcome of one placement search.
	SearchResult = placement.SearchResult
	// SearchOpts carries optional search knobs: seed, worker bound and
	// opt-in per-round telemetry collection.
	SearchOpts = placement.SearchOptions
	// SearchRoundStats is one round's telemetry record (SearchOpts
	// Telemetry must be set for SearchResult.Telemetry to be populated).
	SearchRoundStats = placement.RoundStats

	// RandomSampleStrategy scores a random sample of valid placements
	// (the paper's baseline; default).
	RandomSampleStrategy = placement.RandomSample
	// ExhaustiveStrategy enumerates the whole valid-placement space with
	// pruning, capped by the budget.
	ExhaustiveStrategy = placement.Exhaustive
	// BeamStrategy builds placements operator by operator, keeping the
	// best partial placements per step.
	BeamStrategy = placement.Beam
	// LocalSearchStrategy hill-climbs over operator moves and swaps.
	LocalSearchStrategy = placement.LocalSearch
)

// ParseSearchStrategy resolves a strategy name ("random", "exhaustive",
// "beam", "local-search") to its default-configured implementation.
func ParseSearchStrategy(name string) (SearchStrategy, error) {
	return placement.ParseStrategy(name)
}

// SearchStrategyNames lists the built-in placement search strategies.
func SearchStrategyNames() []string { return placement.StrategyNames() }

// Re-exported optimization objectives.
const (
	MinProcLatency = placement.MinProcLatency
	MinE2ELatency  = placement.MinE2ELatency
	MaxThroughput  = placement.MaxThroughput
)

// Re-exported fleet failure-injection simulator types (internal/fleet,
// driven by cmd/costream-sim). A FleetScenario declares a host fleet, a
// timed failure-event script and end-state assertions; RunFleetScenario
// walks the script with a self-healing placement loop that re-optimizes
// on observed-vs-predicted drift.
type (
	// FleetScenario is a parsed fleet simulation scenario.
	FleetScenario = fleet.Scenario
	// FleetReport is the deterministic JSON run report: event timeline,
	// per-query q-error trajectories, recovery actions and assertion
	// outcomes.
	FleetReport = fleet.Report
	// FleetRunOptions tunes a scenario run (predictor, observation
	// window, progress logging).
	FleetRunOptions = fleet.RunOptions
	// CostPredictor scores placements during search and recovery;
	// *Model satisfies it via Model.Predictor.
	CostPredictor = placement.Predictor
)

// ParseFleetScenario parses and validates a scenario document.
func ParseFleetScenario(data []byte) (*FleetScenario, error) { return fleet.Parse(data) }

// LoadFleetScenario reads, parses and validates a scenario file.
func LoadFleetScenario(path string) (*FleetScenario, error) { return fleet.Load(path) }

// RunFleetScenario executes the scenario and returns its report; ctx
// cancels long placement searches mid-run. The report is deterministic
// for a fixed scenario, including across worker counts.
func RunFleetScenario(ctx context.Context, sc *FleetScenario, opts FleetRunOptions) (*FleetReport, error) {
	return fleet.Run(ctx, sc, opts)
}

// Predictor exposes the trained model as a placement cost predictor for
// FleetRunOptions.Predictor and other search entry points.
func (m *Model) Predictor() CostPredictor { return m.pred }

// Re-exported placement control plane (internal/controlplane, served by
// costream-serve as /v1/deployments and driven by costream-ctl): a
// registry of deployed queries healed by a periodic
// monitor -> detect -> re-optimize -> migrate tick, with host
// cordon/drain states every search strategy respects.
type (
	// ControlPlane is the deployment registry plus control-tick engine.
	ControlPlane = controlplane.Plane
	// ControlPlaneConfig configures NewControlPlane.
	ControlPlaneConfig = controlplane.Config
	// ControlPolicy is the control plane's decision kernel (thresholds,
	// hysteresis, search strategy and budget).
	ControlPolicy = controlplane.Policy
	// DeploymentStatus is one deployment's externally visible state,
	// including its bounded decision history.
	DeploymentStatus = controlplane.Status
)

// NewControlPlane builds a placement control plane;
// cfg.Policy.Predictor is required (use Model.Predictor()).
func NewControlPlane(cfg ControlPlaneConfig) (*ControlPlane, error) { return controlplane.New(cfg) }

// NewControlPlane builds a control plane over this model with the
// default policy (q-error drift threshold 2, warm-started local search,
// simulated metric feed).
func (m *Model) NewControlPlane() (*ControlPlane, error) {
	return controlplane.New(controlplane.Config{Policy: controlplane.Policy{Predictor: m.pred}})
}

// Deploy registers query q on cluster c with the control plane under
// id, runs the initial placement search (respecting any cordoned
// hosts) and returns the activated deployment's status. It refuses an
// invalid query or cluster before it does any work (see Execute).
// Subsequent ControlPlane.Tick calls keep the placement healthy.
func Deploy(ctx context.Context, cp *ControlPlane, id string, q *Query, c *Cluster) (DeploymentStatus, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return DeploymentStatus{}, fmt.Errorf("controlplane: deploying %s: %w", id, err)
	}
	return cp.Deploy(ctx, id, a, k, nil)
}

// NewQueryBuilder returns an empty query builder.
func NewQueryBuilder() *QueryBuilder { return stream.NewBuilder() }

// Execute runs the query under the placement on the cluster in the
// bundled execution simulator and returns the measured cost metrics. Like
// every entry of this package that takes a query and a cluster, it
// refuses an invalid query (Query.Analyze; a nil query reads as empty) or
// cluster (Cluster.Check, hosts the placement does not use included)
// before it does any work.
func Execute(q *Query, c *Cluster, p Placement) (*Metrics, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return nil, err
	}
	return sim.Run(a, k, p, sim.DefaultConfig())
}

// GenerateCorpus builds a training corpus of n executed traces following
// the paper's benchmark distribution (Section VI, Table II).
func GenerateCorpus(n int, seed int64) (*Corpus, error) {
	return dataset.Build(dataset.BuildConfig{
		N:    n,
		Seed: seed,
		Gen:  workload.DefaultConfig(seed),
		Sim:  sim.DefaultConfig(),
	})
}

// TrainOptions configures TrainModel.
type TrainOptions struct {
	// Epochs, BatchSize, LearningRate and Hidden configure each GNN.
	Epochs       int
	BatchSize    int
	LearningRate float64
	Hidden       int
	// EnsembleSize is the number of models per cost metric; 0 means 3,
	// and a negative size is refused.
	EnsembleSize int
	// Seed drives initialization and shuffling.
	Seed int64
	// Logf, when set, receives training progress lines.
	Logf func(format string, args ...any)
}

// DefaultTrainOptions mirrors the paper's setup at laptop scale.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Epochs:       45,
		BatchSize:    16,
		LearningRate: 3e-3,
		Hidden:       32,
		EnsembleSize: 3,
		Seed:         1,
	}
}

// Model is a trained COSTREAM cost model: one GNN ensemble per cost
// metric, usable for cost prediction and placement optimization.
type Model struct {
	pred *core.Predictor
	prov ModelInfo
}

// ModelInfo is the provenance metadata stored alongside a model artifact:
// train seed, corpus size, epochs, the ensemble size and hidden width
// that were trained, and creation time.
type ModelInfo = artifact.Provenance

// TrainModel trains COSTREAM on the corpus (80/10 train/validation split;
// the remainder is unused and may serve as a test set).
func TrainModel(c *Corpus, opts TrainOptions) (*Model, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("costream: empty corpus")
	}
	train, val, _ := c.Split(0.8, 0.1, opts.Seed)
	tc := core.TrainConfig{
		Epochs:    opts.Epochs,
		BatchSize: opts.BatchSize,
		LR:        opts.LearningRate,
		Hidden:    opts.Hidden,
		Seed:      opts.Seed,
		Patience:  8,
		Logf:      opts.Logf,
	}
	pr, err := core.TrainPredictor(train, val, core.PredictorConfig{
		Train:        tc,
		EnsembleSize: opts.EnsembleSize,
	})
	if err != nil {
		return nil, err
	}
	members, hidden := pr.Shape()
	return &Model{pred: pr, prov: ModelInfo{
		CreatedAt:    time.Now().UTC(),
		TrainSeed:    opts.Seed,
		CorpusSize:   c.Len(),
		Epochs:       opts.Epochs,
		EnsembleSize: members,
		Hidden:       hidden,
	}}, nil
}

// Save writes the full trained model — all metric ensembles with their
// GNN weights and featurizer state, plus provenance — as a versioned
// artifact. A model reloaded with LoadModel produces bit-identical
// predictions.
func (m *Model) Save(path string) error {
	return artifact.Save(path, m.pred, m.prov)
}

// LoadModel reads a model artifact written by Save (or costream-train).
func LoadModel(path string) (*Model, error) {
	pred, prov, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	return &Model{pred: pred, prov: prov}, nil
}

// Info returns the model's provenance metadata.
func (m *Model) Info() ModelInfo { return m.prov }

// PredictCosts estimates the five cost metrics of executing the query
// under the given placement, without running it. It refuses an invalid
// query or cluster (see Execute).
func (m *Model) PredictCosts(q *Query, c *Cluster, p Placement) (Costs, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return Costs{}, err
	}
	return placement.PredictOne(m.pred, a, k, p)
}

// PredictCostsBatch scores many placement candidates in one call,
// featurizing each candidate once and sharing the placement-invariant
// query and cluster features across the batch. Results match per-candidate
// PredictCosts calls exactly; a candidate that fails to score fails the
// call, naming it. It refuses an invalid query or cluster (see Execute).
func (m *Model) PredictCostsBatch(q *Query, c *Cluster, candidates []Placement) ([]Costs, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return nil, err
	}
	costs, errs := placement.Score(context.Background(), m.pred, a, k, candidates, placement.AllCosts)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("costream: candidate %d: %w", i, err)
		}
	}
	return costs, nil
}

// OptimizePlacement samples k heuristic placement candidates
// (co-location allowed, increasing capability bins, acyclic — Figure 5),
// filters out candidates predicted to fail or backpressure, and returns
// the one optimizing the objective together with its predicted costs.
// Candidates are scored in batches by a worker pool sized to GOMAXPROCS.
// It is the RandomSample strategy under a k-candidate budget;
// OptimizePlacementSearchCtx runs the other search strategies. It
// refuses an invalid query or cluster (see Execute) before any search.
func (m *Model) OptimizePlacement(q *Query, c *Cluster, k int, obj Objective, seed int64) (Placement, Costs, error) {
	res, err := m.OptimizePlacementSearchCtx(context.Background(), q, c, RandomSampleStrategy{}, obj,
		SearchBudget{MaxCandidates: k}, SearchOpts{Seed: seed})
	if err != nil {
		return nil, Costs{}, err
	}
	return res.Placement, res.Costs, nil
}

// OptimizePlacementSearchCtx runs a cost-guided placement search: the
// strategy streams candidate placements (generate -> score -> prune in
// rounds) into a budgeted search core that scores them with the model's
// batched predictor and returns the best under the objective. A nil
// strategy selects RandomSampleStrategy. The result is deterministic for
// a fixed opts.Seed, at any GOMAXPROCS and any opts.Workers.
// SearchOpts{Telemetry: true} fills SearchResult.Telemetry; collection is
// purely observational — the chosen placement is identical with it on or
// off. Cancelling ctx stops the search at the next scoring batch and
// returns the best placement found so far with SearchResult.Cancelled
// set; it errors only when no candidate was scored before the cancel. It
// refuses an invalid query or cluster (see Execute) before any search.
func (m *Model) OptimizePlacementSearchCtx(ctx context.Context, q *Query, c *Cluster, strat SearchStrategy, obj Objective, budget SearchBudget, opts SearchOpts) (*SearchResult, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return nil, err
	}
	res, err := placement.Search(ctx, m.pred, a, k, strat, obj, budget, opts)
	if err != nil {
		return nil, fmt.Errorf("costream: %w", err)
	}
	return res, nil
}

// HeuristicPlacement returns a placement drawn by the plain IoT heuristic
// (the initial-placement baseline of the paper's Exp 2a). It refuses an
// invalid query or cluster (see Execute).
func HeuristicPlacement(q *Query, c *Cluster, seed int64) (Placement, error) {
	a, k, err := placement.Check(q, c)
	if err != nil {
		return nil, err
	}
	return placement.RandomValid(rand.New(rand.NewSource(seed)), a, k)
}
