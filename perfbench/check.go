package main

import (
	"context"
	"fmt"
	"reflect"

	"haccrg/internal/harness"
	"haccrg/internal/kernels"
)

// checker decides whether each job's output is correct. A job fails
// when it errors, when its findings digest or simulated cycles differ
// from the values recorded at the benchmark's commit (golden.json) or
// from an earlier repeat of the same key, when a replay does not match
// its recording, or when a traced rerun does not reproduce it.
type checker struct {
	golden    *goldenSet
	seen      map[string]*jobResult
	attempted int
	failed    int
	messages  []string
}

func newChecker(g *goldenSet) *checker {
	return &checker{golden: g, seen: map[string]*jobResult{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// sim checks one simulated job; it reports whether the job passed.
func (c *checker) sim(k jobKey, r *jobResult, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", k, err)
		return false
	}
	if msg := c.simMismatch(k, r); msg != "" {
		c.fail("%s: %s", k, msg)
		return false
	}
	return true
}

func (c *checker) simMismatch(k jobKey, r *jobResult) string {
	g, ok := c.golden.Sim[k.goldenKey()]
	switch {
	case !ok:
		return "no recorded output for this job"
	case r.Digest != g.Digest || r.Races != g.Races:
		return fmt.Sprintf("findings digest %s (%d races), recorded %s (%d races)", r.Digest, r.Races, g.Digest, g.Races)
	case r.Cycles != g.Cycles:
		return fmt.Sprintf("sim_cycles %d, recorded %d", r.Cycles, g.Cycles)
	}
	if k.Mode == modeSGFilter {
		// The filter promises byte-identical findings to the unfiltered run.
		u := k
		u.Mode = modeSG
		if ug, ok := c.golden.Sim[u.goldenKey()]; !ok || ug.Digest != r.Digest || ug.Cycles != r.Cycles {
			return "filtered findings differ from the unfiltered run's"
		}
	}
	if k.Record && (!r.ReplayMatch || r.ReplayDigest != r.Digest) {
		return fmt.Sprintf("replay match=%t digest %s, live digest %s", r.ReplayMatch, r.ReplayDigest, r.Digest)
	}
	if prev, ok := c.seen[k.String()]; ok {
		if prev.Digest != r.Digest || prev.Cycles != r.Cycles {
			return "differs from an earlier repeat"
		}
	} else {
		c.seen[k.String()] = r
	}
	return ""
}

// traced checks that the traced pipeline reproduced the untimed run of
// the same job: findings digest, cycles, every LaunchStats field, and
// for record jobs the journal bytes.
func (c *checker) traced(k jobKey, untimed, traced *jobResult, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s traced: %v", k, err)
		return false
	}
	switch {
	case traced.Digest != untimed.Digest || traced.Cycles != untimed.Cycles:
		c.fail("%s: traced run digest %s cycles %d, untimed %s cycles %d", k, traced.Digest, traced.Cycles, untimed.Digest, untimed.Cycles)
	case !reflect.DeepEqual(traced.Stats, untimed.Stats):
		c.fail("%s: traced run LaunchStats differ from the untimed run's", k)
	case traced.DetStats != untimed.DetStats:
		c.fail("%s: traced run detector stats differ from the untimed run's", k)
	case traced.JournalSHA != untimed.JournalSHA:
		c.fail("%s: traced journal differs from the untimed journal", k)
	default:
		return true
	}
	return false
}

// verify runs each clean benchmark of keys once more with the host
// reference check on (harness.ExecOptions.Verify), outside the timed
// window. Benchmarks without a reference pass trivially.
func (c *checker) verify(ctx context.Context, keys []jobKey) {
	done := map[string]bool{}
	for _, k := range keys {
		if k.Variant != "" || done[k.Bench] {
			continue
		}
		done[k.Bench] = true
		if kernels.Get(k.Bench) == nil {
			continue
		}
		rc := k.runConfig()
		c.attempted++
		if _, err := harness.ExecContext(ctx, rc, harness.ExecOptions{Verify: true}); err != nil {
			c.fail("%s: host reference check: %v", k, err)
		}
	}
}
