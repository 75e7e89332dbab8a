package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/pdn"
)

// Templates are inputs identical on every run: the cached workload's
// store history and the complete quick-campaign journal the journal probe
// reopens. Each is built once per build of the benchmark, under a key
// derived from the benchmark binary (which embeds the store and journal
// code it writes with), and copied or read from there.

func (b *bench) templateDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(b.build, "templates", hex.EncodeToString(h.Sum(nil))[:16]), nil
}

// template returns dir/name, building it with fill on first use. fill
// writes into a temporary directory that is renamed into place only once
// complete, so an interrupted build is never reused.
func (b *bench) template(name string, fill func(dir string) error) (string, error) {
	root, err := b.templateDir()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, name)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(root, name+".tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	if err := fill(tmp); err != nil {
		return "", fmt.Errorf("build %s template: %w", name, err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "vsbench: built %s template in %.1fs\n", name, time.Since(t0).Seconds())
	return dir, nil
}

// historySeed fixes the history's spec sequence: the history is the same
// on every run, whatever the workload seed.
const historySeed = 20100101

// historyTemplate is a store holding historyJobs finished jobs over the
// popular specs and a cache entry for each popular spec. The first job of
// each spec is its executed source; the rest were served from the cache.
func (b *bench) historyTemplate() (string, error) {
	return b.template("cached-history", func(dir string) error {
		st, err := api.OpenStore(dir)
		if err != nil {
			return err
		}
		renders := make([]map[string]string, len(popularSpecs))
		for i, spec := range popularSpecs {
			if renders[i], err = renderSpec(context.Background(), spec, b.conns); err != nil {
				return err
			}
			if err := b.digests.check(spec, renders[i]); err != nil {
				return err
			}
		}
		r := rand.New(rand.NewSource(historySeed))
		z := newZipf(r, len(popularSpecs))
		source := make([]string, len(popularSpecs))
		base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		for n := 0; n < historyJobs; n++ {
			k := n
			if n >= len(popularSpecs) {
				k = z.next()
			}
			spec, err := apiSpec(popularSpecs[k])
			if err != nil {
				return err
			}
			id, err := st.AllocateID()
			if err != nil {
				return err
			}
			created := base.Add(time.Duration(n) * time.Second)
			rec := api.JobRecord{ID: id, Client: fmt.Sprintf("history-%02d", n%40), Spec: spec, CreatedUnixNS: created.UnixNano()}
			if err := st.CreateJob(rec); err != nil {
				return err
			}
			res := &api.Result{ID: id, State: api.StateDone, Renders: renders[k],
				FinishedUnixNS: created.Add(time.Millisecond).UnixNano()}
			if source[k] == "" {
				source[k] = id
				res.StartedUnixNS = created.UnixNano()
				e := &api.CacheEntry{Fingerprint: spec.ConfigFingerprint(), SourceJob: id,
					Renders: renders[k], CreatedUnixNS: res.FinishedUnixNS}
				if err := st.WriteCached(e); err != nil {
					return err
				}
			} else {
				res.Cached, res.CacheSource = true, source[k]
			}
			if err := st.WriteResult(res); err != nil {
				return err
			}
		}
		return nil
	})
}

// apiSpec normalizes a spec the way the server does on admission.
func apiSpec(s jobSpec) (api.JobSpec, error) {
	return api.JobSpec{Experiments: s.Experiments, Scale: s.Scale, FaultSeed: s.FaultSeed,
		Priority: s.Priority}.Validate()
}

// journalTemplate is the journal of a complete quick campaign: every
// corpus run and pair-table cell, recorded under the quick session's
// config hash.
func (b *bench) journalTemplate() (string, error) {
	dir, err := b.template("quick-journal", func(dir string) error {
		sess := experiments.NewSession(experiments.Quick())
		sess.Workers = b.conns
		j, err := journal.Open(filepath.Join(dir, "journal.jsonl"), sess.ConfigFingerprint(), journal.Options{})
		if err != nil {
			return err
		}
		sess.Journal = j
		err = buildCampaignUnits(sess)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	})
	return filepath.Join(dir, "journal.jsonl"), err
}

// buildCampaignUnits builds every journaled measurement of a campaign:
// the three corpora and the pair table.
func buildCampaignUnits(sess *experiments.Session) error {
	return catchAbort(func() {
		ctx := context.Background()
		for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
			sess.Corpus(ctx, v)
		}
		sess.PairTable(ctx, pdn.Proc3)
	})
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
