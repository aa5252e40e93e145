// Placement optimization on an IoT scenario (the paper's headline use
// case, Figure 4): a 2-way windowed join over two sensor streams must be
// placed on a heterogeneous edge-fog-cloud landscape. COSTREAM runs a
// beam search over rule-conforming placements, predicts candidate costs,
// filters out candidates predicted to fail or backpressure, and picks the
// fastest — then the choice is verified against the plain heuristic
// initial placement.
//
// Run with: go run ./examples/placement
package main

import (
	"context"
	"fmt"
	"log"

	"costream"
)

func main() {
	log.SetFlags(0)

	// Two sensor streams joined in a 4-second window, then aggregated
	// per device group.
	b := costream.NewQueryBuilder()
	temp := b.AddSource(900, []costream.DataType{costream.TypeInt, costream.TypeDouble, costream.TypeInt})
	humid := b.AddSource(900, []costream.DataType{costream.TypeInt, costream.TypeDouble, costream.TypeInt})
	tFil := b.AddFilter(costream.FilterGT, costream.TypeDouble, 0.6)
	join := b.AddJoin(costream.TypeInt,
		costream.Window{Type: costream.WindowSliding, Policy: costream.WindowTimeBased, Size: 4, Slide: 2},
		0.0005)
	agg := b.AddAggregate(costream.AggMean, costream.TypeDouble, costream.TypeInt, true,
		costream.Window{Type: costream.WindowTumbling, Policy: costream.WindowCountBased, Size: 80, Slide: 80},
		0.3)
	sink := b.AddSink()
	b.Connect(temp, tFil).Connect(tFil, join).Connect(humid, join)
	b.Chain(join, agg, sink)
	q, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// An edge-heavy landscape: sensors attach to weak boxes; one fog
	// workstation and one cloud VM are reachable.
	cluster := &costream.Cluster{Hosts: []*costream.Host{
		{ID: "edge-a", CPU: 50, RAMMB: 1000, NetLatencyMS: 80, NetBandwidthMbps: 25},
		{ID: "edge-b", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 50},
		{ID: "fog", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 2, NetBandwidthMbps: 6400},
	}}

	fmt.Println("training cost model on 800 generated traces...")
	corpus, err := costream.GenerateCorpus(800, 21)
	if err != nil {
		log.Fatal(err)
	}
	opts := costream.DefaultTrainOptions()
	opts.Epochs = 20
	opts.EnsembleSize = 3
	model, err := costream.TrainModel(corpus, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the plain IoT placement heuristic (no cost model).
	initial, err := costream.HeuristicPlacement(q, cluster, 5)
	if err != nil {
		log.Fatal(err)
	}
	// COSTREAM: beam-search the placement space under a 24-candidate
	// budget, pick the predicted-fastest sane placement.
	res, err := model.OptimizePlacementSearchCtx(context.Background(), q, cluster, costream.BeamStrategy{Width: 6},
		costream.MinProcLatency, costream.SearchBudget{MaxCandidates: 24}, costream.SearchOpts{Seed: 6})
	if err != nil {
		log.Fatal(err)
	}
	best, pred := res.Placement, res.Costs
	fmt.Printf("beam search examined %d placements in %d rounds\n", res.Examined, res.Rounds)

	name := func(p costream.Placement) []string {
		out := make([]string, len(p))
		for i, h := range p {
			out[i] = cluster.Hosts[h].ID
		}
		return out
	}
	fmt.Printf("\nheuristic initial: %v\n", name(initial))
	fmt.Printf("COSTREAM choice:   %v (predicted Lp %.0f ms)\n", name(best), pred.ProcLatencyMS)

	mi, err := costream.Execute(q, cluster, initial)
	if err != nil {
		log.Fatal(err)
	}
	mb, err := costream.Execute(q, cluster, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured initial:   %v\n", mi)
	fmt.Printf("measured optimized: %v\n", mb)
	if mi.Success && mb.Success {
		fmt.Printf("\nprocessing-latency speed-up: %.2fx\n", mi.ProcLatencyMS/mb.ProcLatencyMS)
	} else if !mi.Success && mb.Success {
		fmt.Println("\nthe heuristic initial placement failed; COSTREAM's choice runs successfully")
	}
}
