// Quickstart: build a streaming query, train a small COSTREAM model on
// generated traces, save it as a reusable artifact, reload it, predict
// the cost of a placement without executing it, and check the prediction
// against the execution simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"costream"
)

func main() {
	log.SetFlags(0)

	// 1. A linear streaming query: sensor source -> filter -> sink.
	b := costream.NewQueryBuilder()
	src := b.AddSource(2000, []costream.DataType{costream.TypeInt, costream.TypeDouble, costream.TypeString})
	filt := b.AddFilter(costream.FilterGT, costream.TypeDouble, 0.4)
	sink := b.AddSink()
	b.Chain(src, filt, sink)
	q, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s with %d operators\n", q.Class(), q.NumOps())

	// 2. An edge-cloud landscape: a weak edge node, a fog node, a cloud
	// server, described by the four transferable hardware features.
	cluster := &costream.Cluster{Hosts: []*costream.Host{
		{ID: "edge", CPU: 100, RAMMB: 2000, NetLatencyMS: 40, NetBandwidthMbps: 100},
		{ID: "fog", CPU: 400, RAMMB: 8000, NetLatencyMS: 10, NetBandwidthMbps: 800},
		{ID: "cloud", CPU: 800, RAMMB: 32000, NetLatencyMS: 1, NetBandwidthMbps: 10000},
	}}

	// 3. Train a small cost model on simulated executions. (Real uses
	// train once on a large corpus and reuse the model for all queries.)
	fmt.Println("generating 600 training traces and training the cost model...")
	corpus, err := costream.GenerateCorpus(600, 1)
	if err != nil {
		log.Fatal(err)
	}
	opts := costream.DefaultTrainOptions()
	opts.Epochs = 15
	opts.EnsembleSize = 1
	model, err := costream.TrainModel(corpus, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Save the trained model as an artifact and reload it — this is
	// the zero-shot workflow: train once, then reuse the saved model for
	// any future query and cluster (costream-serve serves it over HTTP).
	dir, err := os.MkdirTemp("", "costream-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	artifactPath := filepath.Join(dir, "model.costream")
	if err := model.Save(artifactPath); err != nil {
		log.Fatal(err)
	}
	reloaded, err := costream.LoadModel(artifactPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved and reloaded the model (trained on %d traces)\n", reloaded.Info().CorpusSize)

	// 5. Predict costs for a concrete placement with the reloaded model
	// (bit-identical to the in-memory one), then verify by executing.
	p := costream.Placement{0, 1, 2} // source on edge, filter on fog, sink on cloud
	pred, err := reloaded.PredictCosts(q, cluster, p)
	if err != nil {
		log.Fatal(err)
	}
	if inMem, err := model.PredictCosts(q, cluster, p); err != nil || pred != inMem {
		log.Fatalf("reloaded model diverged from the trained one: %+v vs %+v (%v)", pred, inMem, err)
	}
	fmt.Printf("\npredicted: Lp=%.0f ms, Le=%.0f ms, T=%.0f ev/s, success=%v, backpressure=%v\n",
		pred.ProcLatencyMS, pred.E2ELatencyMS, pred.ThroughputTPS, pred.Success, pred.Backpressured)

	measured, err := costream.Execute(q, cluster, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured:  %v\n", measured)
}
