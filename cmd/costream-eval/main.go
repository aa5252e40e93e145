// Command costream-eval evaluates a trained COSTREAM model artifact
// (written by costream-train) against a corpus, reporting the paper's
// evaluation metrics: median and 95th-percentile q-error for regression
// metrics, or accuracy on a balanced subset for the binary metrics, one
// line per metric the artifact holds an ensemble for. The saved model is
// loaded — nothing is retrained.
//
// -corpus names a corpus store directory; the corpus is streamed
// (balanced subsets are selected by index), never materialized.
//
// Usage:
//
//	costream-eval -corpus test/ -model model.costream                    # every trained metric
//	costream-eval -corpus test/ -model model.costream -metric e2e-latency
package main

import (
	"flag"
	"fmt"
	"log"

	"costream/internal/artifact"
	"costream/internal/core"
	"costream/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-eval: ")
	var (
		corpusPath = flag.String("corpus", "corpus", "evaluation corpus store directory")
		modelPath  = flag.String("model", "model.costream", "model artifact path")
		metricName = flag.String("metric", "", "restrict evaluation to one metric")
	)
	flag.Parse()

	src, err := dataset.OpenStore(*corpusPath)
	if err != nil {
		log.Fatal(err)
	}

	pred, prov, err := artifact.Load(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: trained seed=%d corpus=%d epochs=%d ensemble=%d\n",
		prov.TrainSeed, prov.CorpusSize, prov.Epochs, prov.EnsembleSize)

	metrics := core.AllMetrics()
	if *metricName != "" {
		m, err := core.ParseMetric(*metricName)
		if err != nil {
			log.Fatal(err)
		}
		metrics = []core.Metric{m}
	}
	// artifact.Load refuses a predictor without a trained ensemble, so
	// every run prints at least one line.
	for _, m := range metrics {
		if pred[m] == nil {
			if *metricName != "" {
				log.Fatalf("artifact %s has no ensemble for %v", *modelPath, m)
			}
			continue
		}
		report(pred, src, m)
	}
}

// report prints one metric's evaluation line, ensemble-aggregated like
// the paper (mean for regression, majority vote for classification).
// Every trace asks the predictor for the metric's cost alone, so only the
// metric's ensemble runs. The corpus is streamed: balanced classification
// subsets are chosen by index, so the store is never materialized.
func report(p *core.Predictor, src dataset.Source, metric core.Metric) {
	if metric.IsRegression() {
		sum, err := core.EvaluateRegression(p, src, metric)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s Q50=%.2f Q95=%.2f max=%.2f (n=%d successful traces)\n",
			metric, sum.Median, sum.P95, sum.Max, sum.N)
		return
	}
	acc, n, err := core.EvaluateClassificationBalanced(p, src, metric, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-13s accuracy=%.2f%% (n=%d, balanced)\n", metric, 100*acc, n)
}
