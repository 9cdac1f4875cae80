package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pinnedDigests holds the sha256 of every output the default seed
// produces: each Estimate Summary of estimate-lanes and monitor-detect,
// and each file of the campaign-smoke directory.
//
//go:embed digests.json
var pinnedDigests []byte

// pinsPath is where -write-pins records digests, relative to the
// repository root.
const pinsPath = "perfbench/digests.json"

// digests checks a run's outputs. Every output has a key; a key seen twice
// in a run must hash the same both times (so the traced pass must repeat
// the untraced one), and on the default seed it must match its pin.
type digests struct {
	pinned   map[string]string // nil off the default seed
	record   bool              // collecting pins instead of checking them
	seen     map[string]string
	problems []string
}

func newDigests(defaultSeed, record bool) (*digests, error) {
	d := &digests{seen: map[string]string{}, record: record}
	if defaultSeed {
		if err := json.Unmarshal(pinnedDigests, &d.pinned); err != nil {
			return nil, fmt.Errorf("digests.json: %w", err)
		}
	}
	return d, nil
}

// hashBytes returns the hex sha256 of b.
func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hashJSON returns the hex sha256 of v's JSON encoding.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // only plain structs are hashed
	}
	return hashBytes(b)
}

// check records sum under key and reports any disagreement.
func (d *digests) check(key, sum string) {
	if prev, ok := d.seen[key]; ok {
		if prev != sum {
			d.problems = append(d.problems, fmt.Sprintf("%s: output differs between runs of the same input (%.12s vs %.12s)", key, prev, sum))
		}
		return
	}
	d.seen[key] = sum
	if d.pinned == nil || d.record {
		return
	}
	pin, ok := d.pinned[key]
	switch {
	case !ok:
		d.problems = append(d.problems, fmt.Sprintf("%s: no pinned digest", key))
	case pin != sum:
		d.problems = append(d.problems, fmt.Sprintf("%s: digest %.12s, pinned %.12s", key, sum, pin))
	}
}

// write replaces the pins of one workload in digests.json with the ones
// this run saw.
func (d *digests) write(workload string) error {
	pins := map[string]string{}
	for k, v := range d.pinned {
		if !strings.HasPrefix(k, workload+"/") {
			pins[k] = v
		}
	}
	for k, v := range d.seen {
		pins[k] = v
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(b, '\n'), 0o644)
}

// hashDir returns the sha256 of every regular file directly in dir, keyed
// by file name.
func hashDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = hashBytes(b)
	}
	return out, nil
}

// sortedKeys returns the keys of m in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
