// Package artifact defines the durable on-disk format for trained
// COSTREAM predictors: every trained ensemble — up to 5 metrics x k
// members, each with its GNN weights and featurizer mode — plus provenance
// metadata describing how it was trained.
//
// The format exists to make the paper's zero-shot workflow real: train
// once, save, and answer placement queries for unseen workloads and
// hardware from the saved file. Version 2 is binary:
//
//   - line 1 is a compact JSON header ending in '\n': the magic, the
//     version, the provenance, and one core.Section per trained ensemble
//     in core.Metric order (metric, feature mode, gnn.Config,
//     member count k and section byte length);
//   - then one section per entry, its k members back to back, each member
//     its gnn.Model.Params slices in order as little-endian
//     math.Float64bits;
//   - last, the little-endian CRC-32C (Castagnoli) of everything before it.
//
// Weights are stored bit for bit, so a loaded predictor's predictions,
// single or batched, are bit-identical to the in-memory model that was
// saved. Read checks the header's magic and version, then the checksum,
// then every section's length against its config, before it builds any
// member; it refuses a non-finite weight naming the metric and member,
// and stacks every ensemble, so a file that loads can serve. Save refuses
// what Read would. Version 1 files (gzip-compressed or plain JSON) are
// refused: retrain them from their seed.
package artifact

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"costream/internal/core"
)

// Magic identifies a COSTREAM model artifact.
const Magic = "costream-model"

// Version is the current artifact format version. Readers reject other
// versions rather than guessing at layouts.
const Version = 2

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

// header is the artifact's first line.
type header struct {
	Magic      string         `json:"magic"`
	Version    int            `json:"version"`
	Provenance Provenance     `json:"provenance"`
	Sections   []core.Section `json:"sections"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Write serializes the predictor and provenance to w. A predictor Read
// would refuse is refused before anything is written.
func Write(w io.Writer, pred *core.Predictor, prov Provenance) error {
	if pred == nil {
		return fmt.Errorf("artifact: nil predictor")
	}
	secs, err := pred.Sections()
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	line, err := json.Marshal(header{Magic: Magic, Version: Version, Provenance: prov, Sections: secs})
	if err != nil {
		return fmt.Errorf("artifact: encoding header: %w", err)
	}
	bw := bufio.NewWriter(w)
	crc := crc32.New(castagnoli)
	out := io.MultiWriter(bw, crc)
	// A bufio.Writer keeps its first error and returns it from every later
	// Write and from Flush, so only the last call's error needs checking.
	_, _ = out.Write(append(line, '\n'))
	_ = pred.WriteWeights(out)
	_, _ = bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("artifact: writing model: %w", err)
	}
	return nil
}

// Read deserializes an artifact from r. Malformed inputs return
// descriptive errors, never panics. The header line is parsed, and its
// magic and version checked, before the checksum is verified, so that a
// version 1 file is refused as such rather than as a corrupt one.
func Read(r io.Reader) (*core.Predictor, Provenance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: reading model: %w", err)
	}
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		return nil, Provenance{}, versionError(1)
	}
	line, rest, _ := bytes.Cut(data, []byte{'\n'})
	var hdr header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: not a costream model artifact: %w", err)
	}
	if hdr.Magic != Magic {
		return nil, Provenance{}, fmt.Errorf("artifact: not a costream model artifact (magic %q, want %q)", hdr.Magic, Magic)
	}
	if hdr.Version != Version {
		return nil, Provenance{}, versionError(hdr.Version)
	}
	if len(rest) < 4 || crc32.Checksum(data[:len(data)-4], castagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, Provenance{}, fmt.Errorf("artifact: checksum mismatch: the file is truncated or corrupt")
	}
	pred, err := core.DecodePredictor(hdr.Sections, rest[:len(rest)-4])
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("artifact: %w", err)
	}
	return pred, hdr.Provenance, nil
}

// versionError refuses a format version other than Version. A gzip stream
// is version 1, which predates the binary layout.
func versionError(v int) error {
	if v == 1 {
		return fmt.Errorf("artifact: version 1 model artifact (this build reads version %d only): retrain the model from its seed", Version)
	}
	return fmt.Errorf("artifact: unsupported format version %d (this build reads version %d)", v, Version)
}

// Save writes the artifact to path atomically (temp file + rename).
func Save(path string, pred *core.Predictor, prov Provenance) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".costream-artifact-*")
	if err != nil {
		return fmt.Errorf("artifact: creating %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, pred, prov); err != nil {
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
