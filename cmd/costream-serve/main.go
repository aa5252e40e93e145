// Command costream-serve is a long-running HTTP prediction and placement
// optimization service. It loads a model artifact written by
// costream-train (or Model.Save) once at startup and then answers
// placement queries for arbitrary unseen queries and clusters — the
// paper's zero-shot workflow as a service.
//
//	costream-serve -model model.costream -addr :8080
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/example | curl -s --json @- localhost:8080/v1/predict
//	curl localhost:8080/metrics
//
// Predict responses are cached in a bounded LRU, a miss is scored on the
// request's own goroutine like a one-placement /v1/predict-batch, and
// total in-flight model work is bounded by a semaphore. Every
// /v1/predict and /v1/optimize response names its request in an
// X-Costream-Trace header, and that request's stage timings are the
// costream_http_stage_seconds histograms on /metrics.
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"costream/internal/artifact"
	"costream/internal/obs"
	"costream/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("costream-serve: ")
	var (
		modelPath   = flag.String("model", "model.costream", "model artifact path (written by costream-train)")
		addr        = flag.String("addr", ":8080", "listen address")
		cacheSize   = flag.Int("cache", serve.DefaultCacheSize, "prediction cache entries (negative disables)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrent model evaluations (0 = GOMAXPROCS)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		readTO      = flag.Duration("read-timeout", 30*time.Second, "max duration to read one request incl. body (0 disables)")
		writeTO     = flag.Duration("write-timeout", 2*time.Minute, "max duration to write one response; bounds slow optimize searches (0 disables)")
		idleTO      = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 disables)")
		maxBody     = flag.Int64("max-body", serve.DefaultMaxRequestBytes, "max request body bytes; larger bodies are answered 413")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty disables; keep it private)")
		ctrlTick    = flag.Duration("control-interval", 15*time.Second, "placement control-loop tick interval (0 disables the loop; /v1/control/tick still works)")
	)
	flag.Parse()

	pred, prov, err := artifact.Load(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	metrics := 0
	for _, e := range pred {
		if e != nil {
			metrics++
		}
	}
	log.Printf("loaded %s: %d/5 metric ensembles (trained %s, seed %d, corpus %d, epochs %d, ensemble %d)",
		*modelPath, metrics, prov.CreatedAt.Format(time.RFC3339),
		prov.TrainSeed, prov.CorpusSize, prov.Epochs, prov.EnsembleSize)

	obs.StartPprof(*pprofAddr, log.Printf)

	srv, err := serve.New(serve.Config{
		Predictor:       pred,
		CacheSize:       *cacheSize,
		MaxInFlight:     *maxInFlight,
		ModelInfo:       prov,
		MaxRequestBytes: *maxBody,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Server-side timeouts so a stalled or malicious peer cannot pin a
	// connection goroutine forever. WriteTimeout is generous: it covers
	// the whole handler, including long /v1/optimize searches (which a
	// closed connection now cancels via the request context).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}

	var loop *serve.ControlLoop
	if *ctrlTick > 0 {
		loop = serve.StartControlLoop(srv.ControlPlane(), *ctrlTick, log.Printf)
		log.Printf("control loop ticking every %v", *ctrlTick)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (draining up to %v)...", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the control loop before closing the listener: the ticker
	// halts, the in-flight tick's searches are cancelled and any
	// migration they still decided lands fully, so no client can observe
	// (and no shutdown can persist) torn registry state.
	if loop != nil {
		if err := loop.Stop(shutdownCtx); err != nil {
			log.Printf("control loop stop: %v", err)
		}
	}
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	log.Print("bye")
}
