package search

import (
	"encoding/json"
	"fmt"

	"kpa/internal/frame"
	"kpa/internal/rat"
)

// CheckpointVersion is the checkpoint format version the frame carries.
// Version 1 was the unframed JSON document of earlier builds.
const CheckpointVersion = 2

var checkpointFrame = frame.Format{Magic: [6]byte{'K', 'P', 'C', 'K', 'P', 'T'}, Version: CheckpointVersion}

// Checkpoint is a serializable snapshot of a run: the unexplored frontier
// (choice prefixes over the problem's ordered locals; partial sums are
// recomputed on load), the incumbent, and cumulative counters. The
// fingerprint binds a checkpoint to the compiled problem that produced it
// — seeding a search over any other problem is rejected at load.
//
// An incumbent is always a fully evaluated strategy: partial assignments
// never become incumbents, so a resumed search can trust the value as a
// true bound rather than a guess.
type Checkpoint struct {
	Fingerprint string     `json:"fingerprint"`
	Frontier    [][]byte   `json:"frontier"`
	Incumbent   *Incumbent `json:"incumbent,omitempty"`

	NodesExpanded uint64 `json:"nodesExpanded"`
	NodesPruned   uint64 `json:"nodesPruned"`
	LeafEvals     uint64 `json:"leafEvals"`

	// Request is the caller's own description of the job, stored with the
	// checkpoint and returned as is; the engine neither reads nor sets it.
	Request []byte `json:"request"`
}

// Incumbent is the best full strategy found so far: its exact objective
// value (rational key form) and the witnessing choice vector.
type Incumbent struct {
	Value   string `json:"value"`
	Choices []byte `json:"choices"`
}

// Encode serializes the checkpoint: a JSON document in the internal/frame
// envelope, so a torn or bit-flipped file fails DecodeCheckpoint.
func (c *Checkpoint) Encode() ([]byte, error) {
	doc, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return checkpointFrame.Encode(doc), nil
}

// DecodeCheckpoint checks the frame and parses and validates the document:
// fingerprint presence and a well-formed incumbent value. Every error
// wraps one of the frame package's sentinels. Structural validation
// against a particular problem (prefix lengths, choice ranges, incumbent
// re-evaluation) happens in Engine.Run.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	doc, err := checkpointFrame.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("search: checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(doc, &c); err != nil {
		return nil, fmt.Errorf("search: checkpoint: %w: %v", frame.ErrCorrupt, err)
	}
	if c.Fingerprint == "" {
		return nil, fmt.Errorf("search: checkpoint: %w: no fingerprint", frame.ErrCorrupt)
	}
	if c.Incumbent != nil {
		if _, err := rat.Parse(c.Incumbent.Value); err != nil {
			return nil, fmt.Errorf("search: checkpoint: %w: incumbent value: %v", frame.ErrCorrupt, err)
		}
	}
	return &c, nil
}
