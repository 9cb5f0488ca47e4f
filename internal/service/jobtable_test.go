package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"haccrg/internal/vfs"
)

// retainedPayloads counts jobs whose in-memory status still holds a
// result payload.
func retainedPayloads(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		st := j.snapshot()
		if st.Runs != nil || st.Replay != nil || st.Analyze != nil {
			n++
		}
	}
	return n
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait %s: %v", id, err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: state %s (%s), want done", id, st.State, st.Error)
	}
	return st
}

// TestFinishedPayloadsEvicted pins the job table's memory bound: once
// a finished job's status is spooled, its payload leaves memory, while
// Job still serves the full result and /statsz counts are unchanged.
func TestFinishedPayloadsEvicted(t *testing.T) {
	s := newTestServer(t, nil)
	s.Start()
	defer s.Drain(expiredCtx(t))

	const n = 12
	var ids []string
	for i := 0; i < n; i++ {
		spec := analyzeSpec()
		if i%4 == 3 {
			spec = &JobSpec{Kind: JobBench, Benches: []string{"psum"}, SmallGPU: true}
		}
		id, _, err := s.Submit("t", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.Analyze == nil && st.Runs == nil {
			t.Fatalf("job %s: full status has no payload", id)
		}
	}
	if r := retainedPayloads(s); r != 0 {
		t.Fatalf("%d finished jobs still hold their payload in memory, want 0 with none in flight", r)
	}
	for _, id := range ids {
		st, ok := s.Job(id)
		if !ok || (st.Analyze == nil && st.Runs == nil) {
			t.Fatalf("Job(%s) lost the payload after eviction: %+v", id, st)
		}
	}
	if got := s.Jobs("t"); len(got) != n {
		t.Fatalf("Jobs lists %d jobs, want %d", len(got), n)
	}
	stats := s.Stats()
	if stats.KnownJobs != n || stats.JobsStates[StateDone] != n || stats.Completed != n {
		t.Fatalf("statsz known=%d done=%d completed=%d, want %d each",
			stats.KnownJobs, stats.JobsStates[StateDone], stats.Completed, n)
	}
}

// gateFS holds the rename that commits a job's status file until the
// test opens the gate, so the finished job can be observed both before
// and after its payload is evicted.
type gateFS struct {
	vfs.OS
	hit  chan struct{}
	gate chan struct{}
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".status.json") {
		g.hit <- struct{}{}
		<-g.gate
	}
	return g.OS.Rename(oldpath, newpath)
}

func getBody(t *testing.T, url, tenant string) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestEvictedStatusByteIdentical pins that serving a finished job from
// the spool is invisible to clients: the GET body of a finished bench
// or analyze job is byte-identical while its status is still in memory
// and after the payload was evicted.
func TestEvictedStatusByteIdentical(t *testing.T) {
	g := &gateFS{hit: make(chan struct{}), gate: make(chan struct{})}
	s, hs := newHTTPServer(t, func(c *Config) { c.FS = g })
	s.Start()
	defer s.Drain(expiredCtx(t))

	specs := map[string]*JobSpec{
		"analyze": analyzeSpec(),
		"bench":   {Kind: JobBench, Benches: []string{"scan"}, SmallGPU: true},
	}
	for name, spec := range specs {
		id, _, err := s.Submit("alice", spec)
		if err != nil {
			t.Fatal(err)
		}
		<-g.hit // finished, status not yet committed: served from memory
		before := getBody(t, hs.URL+"/v1/jobs/"+id, "alice")
		if !bytes.Contains(before, []byte(`"state": "done"`)) {
			t.Fatalf("%s: job not terminal while its status commits:\n%s", name, before)
		}
		g.gate <- struct{}{}
		waitDone(t, s, id)
		if r := retainedPayloads(s); r != 0 {
			t.Fatalf("%s: payload not evicted after the status was spooled", name)
		}
		after := getBody(t, hs.URL+"/v1/jobs/"+id, "alice")
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: GET differs after eviction\nbefore:\n%s\nafter:\n%s", name, before, after)
		}
	}
}

// syncFailFS fails the fsync of every status file write.
type syncFailFS struct{ vfs.OS }

type syncFailFile struct{ vfs.File }

func (f syncFailFile) Sync() error { return errors.New("injected fsync failure") }

func (fs syncFailFS) Create(name string) (vfs.File, error) {
	f, err := fs.OS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".status.json.tmp") {
		return f, err
	}
	return syncFailFile{f}, nil
}

// TestUnspooledStatusServedFromMemory pins the fsync-failure path: a
// status that never reached the spool keeps its payload in memory and
// is served from there.
func TestUnspooledStatusServedFromMemory(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.FS = syncFailFS{} })
	s.Start()
	defer s.Drain(expiredCtx(t))

	id, _, err := s.Submit("t", analyzeSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, id)
	if st.Analyze == nil || len(st.Analyze.Report) == 0 {
		t.Fatalf("unspooled job lost its analyze result: %+v", st)
	}
	if r := retainedPayloads(s); r != 1 {
		t.Fatalf("%d jobs hold a payload in memory, want the 1 whose status failed to spool", r)
	}
}
