// Package artifact defines the durable on-disk format for trained
// COSTREAM predictors. A model artifact is a single versioned JSON
// document (optionally gzip-compressed) holding every trained ensemble —
// up to 5 metrics x k members, each with its GNN weights and featurizer
// configuration — plus provenance metadata describing how it was trained.
//
// The format exists to make the paper's zero-shot workflow real: train
// once, save, and answer placement queries for unseen workloads and
// hardware from the saved file. Loading an artifact reconstructs a
// predictor whose predictions, single or batched, are bit-identical to
// the in-memory model that was saved (weights are
// float64 and encoding/json emits the shortest representation that
// round-trips exactly).
package artifact

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"costream/internal/core"
)

// Magic identifies a COSTREAM model artifact.
const Magic = "costream-model"

// Version is the current artifact format version. Readers reject other
// versions rather than guessing at layouts.
const Version = 1

// Provenance records how an artifact's predictor was trained.
type Provenance struct {
	CreatedAt    time.Time `json:"created_at"`
	TrainSeed    int64     `json:"train_seed,omitempty"`
	CorpusSize   int       `json:"corpus_size,omitempty"`
	Epochs       int       `json:"epochs,omitempty"`
	EnsembleSize int       `json:"ensemble_size,omitempty"`
	Hidden       int       `json:"hidden,omitempty"`
	Note         string    `json:"note,omitempty"`
}

// fileJSON is the top-level artifact document.
type fileJSON struct {
	Magic      string          `json:"magic"`
	Version    int             `json:"version"`
	Provenance Provenance      `json:"provenance"`
	Predictor  *core.Predictor `json:"predictor"`
}

// Write serializes the predictor and provenance to w, gzip-compressing
// when compress is set.
func Write(w io.Writer, pred *core.Predictor, prov Provenance, compress bool) error {
	if pred == nil {
		return fmt.Errorf("artifact: nil predictor")
	}
	out := w
	var zw *gzip.Writer
	if compress {
		zw = gzip.NewWriter(w)
		out = zw
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(fileJSON{
		Magic:      Magic,
		Version:    Version,
		Provenance: prov,
		Predictor:  pred,
	}); err != nil {
		return fmt.Errorf("artifact: encoding model: %w", err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return fmt.Errorf("artifact: compressing model: %w", err)
		}
	}
	return nil
}

// Read deserializes an artifact from r, transparently handling gzip
// (detected by its magic bytes). Malformed inputs return descriptive
// errors, never panics; so does an ensemble whose members cannot run the
// packed inference kernel, naming its metric, since no request could be
// answered with it.
func Read(r io.Reader) (*core.Predictor, Provenance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: reading model: %w", err)
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, Provenance{}, fmt.Errorf("artifact: opening gzip stream: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, Provenance{}, fmt.Errorf("artifact: decompressing model: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, Provenance{}, fmt.Errorf("artifact: decompressing model: %w", err)
		}
	}

	// Check the header before touching the predictor payload, so version
	// mismatches surface as such instead of as decode errors against a
	// future layout.
	var hdr struct {
		Magic   string `json:"magic"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: not a costream model artifact: %w", err)
	}
	if hdr.Magic != Magic {
		return nil, Provenance{}, fmt.Errorf("artifact: not a costream model artifact (magic %q, want %q)", hdr.Magic, Magic)
	}
	if hdr.Version != Version {
		return nil, Provenance{}, fmt.Errorf("artifact: unsupported format version %d (this build reads version %d)", hdr.Version, Version)
	}
	var f fileJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: decoding model: %w", err)
	}
	if f.Predictor == nil {
		return nil, Provenance{}, fmt.Errorf("artifact: model artifact has no predictor payload")
	}
	return f.Predictor, f.Provenance, nil
}

// Save writes the artifact to path atomically (temp file + rename).
// Paths ending in ".gz" are gzip-compressed.
func Save(path string, pred *core.Predictor, prov Provenance) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".costream-artifact-*")
	if err != nil {
		return fmt.Errorf("artifact: creating %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, pred, prov, strings.HasSuffix(path, ".gz")); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp opens 0600; artifacts are shareable data files, so widen
	// to the conventional 0644 before publishing.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	return nil
}

// Load reads an artifact written by Save.
func Load(path string) (*core.Predictor, Provenance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: %w", err)
	}
	defer f.Close()
	pred, prov, err := Read(f)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return pred, prov, nil
}
