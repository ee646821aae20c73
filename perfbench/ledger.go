package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gate accumulates correctness mismatches. Each mismatch counts as one
// failed operation, and any mismatch fails the run.
type gate struct {
	mismatches int
	lines      []string
}

func (g *gate) add(lines []string) {
	g.mismatches += len(lines)
	g.lines = append(g.lines, lines...)
}

// check runs the workload's output gate on the last pass and, given the
// reference counts, requires the pass's work counts to repeat them exactly.
func (g *gate) check(ctx context.Context, w workload, pr *passResult, want map[string]int64) error {
	lines, err := w.verify(ctx)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	g.add(lines)
	if want != nil {
		g.add(diffCounts(want, pr.counts))
	}
	return nil
}

// diffCounts lists every count that differs between two ledgers over their
// shared keys. A drift means nondeterminism in the work done.
func diffCounts(want, got map[string]int64) []string {
	var out []string
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; ok && g != want[k] {
			out = append(out, fmt.Sprintf("work count %s: %d, reference %d", k, g, want[k]))
		}
	}
	return out
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mergeCounts(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// ledger compares the run's work counts with those an earlier run of the
// same sources, workload and seed recorded, then records the union.
func (g *gate) ledger(cfg config, source string, counts map[string]int64) error {
	dir := filepath.Join(cfg.out, "ledger", source)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	prev := map[string]int64{}
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("reading ledger %s: %w", path, err)
		}
		g.add(diffCounts(prev, counts))
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	data, err := json.MarshalIndent(mergeCounts(prev, counts), "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sourceDigest hashes the Go sources, module files and JSON data under root
// (skipping build output), naming the benchmarked code when the checkout is
// not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
		default:
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}
