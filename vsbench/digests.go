package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"voltsmooth/internal/experiments"
)

// digests.json holds the render digests every submitted spec is checked
// against. Regenerate it with `vsbench -gen-digests vsbench/digests.json`
// only when a change is meant to alter renders.
//
//go:embed digests.json
var digestsJSON []byte

// digestBook is the committed digest set.
//
//   - Units maps "<scale>/<experiment>" (fault seed 0) and
//     "<scale>/figx-recovery#<seed>" to the digest of that one render, so
//     any generated cold spec can be checked experiment by experiment.
//   - Specs maps every fixed spec's key (the campaign, the probe and the
//     popular specs) to the digest of the whole spec.
type digestBook struct {
	Units map[string]string `json:"units"`
	Specs map[string]string `json:"specs"`
}

func loadDigests() (*digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(digestsJSON, &b); err != nil {
		return nil, fmt.Errorf("parse digests.json: %w", err)
	}
	return &b, nil
}

func unitKey(scale, id string, faultSeed uint64) string {
	if id == recoveryExperiment && faultSeed != 0 {
		return scale + "/" + id + "#" + strconv.FormatUint(faultSeed, 10)
	}
	return scale + "/" + id
}

// unitDigest is sha256 over an experiment ID and its render.
func unitDigest(id, render string) string {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(render))
	return hex.EncodeToString(h.Sum(nil))
}

// specDigest is sha256 over every experiment ID and render of a spec, in
// registry order.
func specDigest(ids []string, renders map[string]string) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
		h.Write([]byte(renders[id]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies a job's renders for spec: exactly the spec's experiments,
// each render matching its committed digest, and the whole-spec digest
// where one is committed. It returns nil when everything matches.
func (b *digestBook) check(spec jobSpec, renders map[string]string) error {
	ids := expand(spec.Experiments)
	if len(renders) != len(ids) {
		return fmt.Errorf("spec %s: %d renders for %d experiments", spec.key(), len(renders), len(ids))
	}
	for _, id := range ids {
		r, ok := renders[id]
		if !ok {
			return fmt.Errorf("spec %s: no render for %s", spec.key(), id)
		}
		want, ok := b.Units[unitKey(spec.Scale, id, spec.FaultSeed)]
		if !ok {
			return fmt.Errorf("spec %s: no committed digest for %s", spec.key(), unitKey(spec.Scale, id, spec.FaultSeed))
		}
		if got := unitDigest(id, r); got != want {
			return fmt.Errorf("spec %s: render of %s has digest %.12s, want %.12s", spec.key(), id, got, want)
		}
	}
	if want, ok := b.Specs[spec.key()]; ok {
		if got := specDigest(ids, renders); got != want {
			return fmt.Errorf("spec %s: digest %.12s, want %.12s", spec.key(), got, want)
		}
	}
	return nil
}

// renderSpec runs a spec's experiments in process on a fresh session, the
// way a vsmoothd job does, and returns the renders by experiment ID.
func renderSpec(ctx context.Context, spec jobSpec, workers int) (map[string]string, error) {
	scale, err := experiments.ScaleByName(spec.Scale)
	if err != nil {
		return nil, err
	}
	sess := experiments.NewSession(scale)
	sess.Workers = workers
	sess.FaultSeed = spec.FaultSeed
	out := map[string]string{}
	for _, id := range expand(spec.Experiments) {
		e, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		r, err := sess.Run(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", id, err)
		}
		out[id] = r.Render()
	}
	return out, nil
}

// generateDigests renders every spec the workloads can submit and writes
// the digest book to path.
func generateDigests(ctx context.Context, path string, workers int) error {
	b := digestBook{Units: map[string]string{}, Specs: map[string]string{}}
	for _, spec := range []jobSpec{campaignSpec, probeSpec} {
		renders, err := renderSpec(ctx, spec, workers)
		if err != nil {
			return err
		}
		for id, r := range renders {
			b.Units[unitKey(spec.Scale, id, 0)] = unitDigest(id, r)
		}
		b.Specs[spec.key()] = specDigest(expand(spec.Experiments), renders)
		fmt.Fprintf(os.Stderr, "vsbench: digests for %s done\n", spec.key())
	}
	for seed := uint64(1); seed <= maxFaultSeed; seed++ {
		spec := jobSpec{Experiments: []string{recoveryExperiment}, Scale: "tiny", FaultSeed: seed}
		renders, err := renderSpec(ctx, spec, workers)
		if err != nil {
			return err
		}
		b.Units[unitKey(spec.Scale, recoveryExperiment, seed)] = unitDigest(recoveryExperiment, renders[recoveryExperiment])
	}
	for _, spec := range popularSpecs {
		renders, err := renderSpec(ctx, spec, workers)
		if err != nil {
			return err
		}
		b.Specs[spec.key()] = specDigest(spec.Experiments, renders)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
