package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"rfd/experiment"
)

// Request classes of rfdd-mix, by how much work a request shares with
// earlier ones.
const (
	classCold      = iota // new seed: topology build + fingerprint + warm-up + simulate + encode
	classSnapWarm         // same base, unseen pulse counts: pool hit + fork + simulate
	classCacheWarm        // byte-identical repeat: topology build + fingerprint + lookup + encode
	numClasses
)

var classNames = [numClasses]string{"cold", "snapwarm", "cachewarm"}

// Topology kinds of rfdd-mix sessions.
const (
	kindMesh = iota
	kindInet
	numKinds
)

// The three distinct bodies of a session: the cold sweep and the two
// snapshot-warm sweeps over pulse counts the cold one did not ask for.
var sessionPulses = [3][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8}, {9, 10}}

// cacheWarmRepeats is which of the three bodies each of a session's ten
// cache-warm requests repeats, before the per-session seeded shuffle.
var cacheWarmRepeats = []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}

type mixRequest struct {
	class int
	body  int // index into session.bodies
}

// session is one client-visible unit of rfdd-mix: 1 cold, 2 snapshot-warm
// and 10 cache-warm requests against one base scenario.
type session struct {
	kind   int
	seed   uint64
	bodies [3][]byte
	reqs   []mixRequest
}

// sessionKind alternates mesh and internet within each client's list and in
// opposite phase between the two clients (client = index % 2), so a mesh and
// an internet session are in flight together most of the time.
func sessionKind(i int) int { return ((i >> 1) ^ i) & 1 }

func sweepBody(sc scale, kind int, seed uint64, pulses []int) []byte {
	p, _ := json.Marshal(pulses)
	if kind == kindMesh {
		return []byte(fmt.Sprintf(`{"topology":"mesh","rows":%d,"cols":%d,"damping":"cisco","pulses":%s,"seed":%d}`,
			sc.meshSide, sc.meshSide, p, seed))
	}
	return []byte(fmt.Sprintf(`{"topology":"internet","nodes":%d,"damping":"cisco","pulses":%s,"seed":%d}`,
		sc.mixInetNodes, p, seed))
}

// makeSessions derives n sessions from the benchmark seed. Session seeds are
// consecutive from a seed-derived base, so every session is a new scenario
// fingerprint; firstIndex offsets them so the warm-up and the traced stream
// slice never collide with the timed schedule.
func makeSessions(seed uint64, sc scale, firstIndex, n int) []session {
	rng := rand.New(rand.NewSource(int64(seed) + int64(firstIndex)))
	base := 1 + (seed*0x9E3779B97F4A7C15)>>24 // below 2^40: exact in any JSON decoder
	out := make([]session, n)
	for i := range out {
		s := &out[i]
		idx := firstIndex + i
		s.kind = sessionKind(idx)
		s.seed = base + uint64(idx)
		for b, pulses := range sessionPulses {
			s.bodies[b] = sweepBody(sc, s.kind, s.seed, pulses)
		}
		s.reqs = []mixRequest{{classCold, 0}, {classSnapWarm, 1}, {classSnapWarm, 2}}
		repeats := append([]int(nil), cacheWarmRepeats...)
		rng.Shuffle(len(repeats), func(a, b int) { repeats[a], repeats[b] = repeats[b], repeats[a] })
		for _, b := range repeats {
			s.reqs = append(s.reqs, mixRequest{classCacheWarm, b})
		}
	}
	return out
}

// daemon is a running rfdd child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{}
}

// startDaemon launches rfdd on a free loopback port with a memory-only cache
// and the default snapshot pool, and returns once /healthz answers.
func startDaemon(bin string, workers int) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		// rfdd cannot report a kernel-chosen port, so reserve one and hand it
		// over; losing the race to another process just retries.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()

		d := &daemon{url: "http://" + addr, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", addr, "-workers", fmt.Sprint(workers), "-concurrency", "2")
		d.cmd.Stderr = &d.stderr
		if err := d.cmd.Start(); err != nil {
			return nil, err
		}
		go func() { d.cmd.Wait(); close(d.exited) }()
		if lastErr = d.waitReady(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rfdd exited during start-up: %s", d.stderr.String())
		default:
		}
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("rfdd not ready after %v", limit)
}

// stop asks the daemon to drain and waits until the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// healthz is the subset of rfdd's /healthz the benchmark checks.
type healthz struct {
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	Uncacheable       uint64 `json:"uncacheable"`
	SnapshotCapacity  int    `json:"snapshot_capacity"`
	SnapshotsPooled   int    `json:"snapshots_pooled"`
	SnapshotHits      uint64 `json:"snapshot_hits"`
	SnapshotMisses    uint64 `json:"snapshot_misses"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
}

func (d *daemon) healthz(c *http.Client) (healthz, error) {
	var h healthz
	resp, err := c.Get(d.url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// post sends one sweep request and returns status, body and client-observed
// latency (request written to reply fully read).
func post(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// mixResult is what the closed-loop clients observed.
type mixResult struct {
	sessions  int
	lat       [numClasses][numKinds][]float64 // seconds
	respBytes int
	rejected  int // 429 replies
	before    healthz
	after     healthz
	// replies holds each session's three distinct reply bodies.
	replies [][3][]byte
}

// classP50 is the median latency of a class. Mesh and internet requests form
// two well-separated modes, and the median of a 50/50 mixture falls between
// them on whichever side has one more sample; so the median is taken per
// topology kind and the two are averaged.
func (m *mixResult) classP50(class int) float64 {
	return kindMean(func(kind int) []float64 { return m.lat[class][kind] }, median)
}

func kindMean(samples func(kind int) []float64, stat func([]float64) float64) float64 {
	total, kinds := 0.0, 0
	for k := 0; k < numKinds; k++ {
		if xs := samples(k); len(xs) > 0 {
			total += stat(xs)
			kinds++
		}
	}
	if kinds == 0 {
		return 0
	}
	return total / float64(kinds)
}

func (m *mixResult) class(class int) []float64 {
	var all []float64
	for k := 0; k < numKinds; k++ {
		all = append(all, m.lat[class][k]...)
	}
	return all
}

func (m *mixResult) kind(kind int) []float64 {
	var all []float64
	for c := 0; c < numClasses; c++ {
		all = append(all, m.lat[c][kind]...)
	}
	return all
}

// clientLog is one closed-loop client's private record, merged afterwards.
type clientLog struct {
	lat       [numClasses][numKinds][]float64
	respBytes int
	rejected  int
	failures  []string
	requests  int
}

// runClients drives the sessions closed-loop: client c walks sessions c,
// c+clients, ... and sends each next request only after the previous reply.
func runClients(c *http.Client, url string, sessions []session, clients int) (*mixResult, []clientLog, time.Duration) {
	m := &mixResult{sessions: len(sessions), replies: make([][3][]byte, len(sessions))}
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			lg := &logs[cl]
			for si := cl; si < len(sessions); si += clients {
				s := &sessions[si]
				for ri, rq := range s.reqs {
					status, data, d, err := post(c, url, s.bodies[rq.body])
					lg.requests++
					lg.lat[rq.class][s.kind] = append(lg.lat[rq.class][s.kind], d.Seconds())
					lg.respBytes += len(data)
					switch {
					case err != nil:
						lg.failures = append(lg.failures, fmt.Sprintf("session %d request %d: %v", si, ri, err))
					case status != http.StatusOK:
						if status == http.StatusTooManyRequests {
							lg.rejected++
						}
						lg.failures = append(lg.failures, fmt.Sprintf("session %d request %d: HTTP %d: %s", si, ri, status, bytes.TrimSpace(data)))
					case rq.class != classCacheWarm:
						m.replies[si][rq.body] = data // only this client touches session si
					case !bytes.Equal(data, m.replies[si][rq.body]):
						lg.failures = append(lg.failures, fmt.Sprintf("session %d request %d: cache-warm reply differs from the first reply for the same body", si, ri))
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i := range logs {
		for cls := 0; cls < numClasses; cls++ {
			for k := 0; k < numKinds; k++ {
				m.lat[cls][k] = append(m.lat[cls][k], logs[i].lat[cls][k]...)
			}
		}
		m.respBytes += logs[i].respBytes
		m.rejected += logs[i].rejected
	}
	return m, logs, wall
}

// sweepReply is the JSON rfdd answers a sweep with.
type sweepReply struct {
	Points []sweepPoint `json:"points"`
	Error  string       `json:"error"`
}

type sweepPoint struct {
	Pulses          int     `json:"pulses"`
	ConvergenceSecs float64 `json:"convergence_s"`
	Messages        int     `json:"messages"`
	MaxDamped       int     `json:"max_damped"`
	Error           string  `json:"error"`
}

// mixScenario rebuilds in-process the base scenario rfdd derives from a
// session's request shape.
func mixScenario(sc scale, s *session) (experiment.Scenario, error) {
	opts := experiment.DefaultOptions()
	opts.MeshRows, opts.MeshCols = sc.meshSide, sc.meshSide
	opts.InternetNodes = sc.mixInetNodes
	opts.Seed = s.seed
	topo := "mesh"
	if s.kind == kindInet {
		topo = "internet"
	}
	return experiment.DaemonScenario(opts, topo, "cisco", false)
}

// verifyReplies checks every session's three replies against an in-process
// RunCache.Sweep of the same scenario. It returns one message per mismatch.
func verifyReplies(sc scale, sessions []session, replies [][3][]byte, workers int) []string {
	var bad []string
	cache := experiment.NewRunCache()
	cache.SetCheckpointPool(experiment.NewCheckpointPool(2))
	for si := range sessions {
		base, err := mixScenario(sc, &sessions[si])
		if err != nil {
			bad = append(bad, fmt.Sprintf("session %d: %v", si, err))
			continue
		}
		pts, err := cache.Sweep(base, experiment.PulseRange(0, 10), workers)
		if err != nil {
			bad = append(bad, fmt.Sprintf("session %d: reference sweep: %v", si, err))
			continue
		}
		for b, pulses := range sessionPulses {
			var got sweepReply
			if err := json.Unmarshal(replies[si][b], &got); err != nil || got.Error != "" || len(got.Points) != len(pulses) {
				bad = append(bad, fmt.Sprintf("session %d body %d: unusable reply %q (%v)", si, b, replies[si][b], err))
				continue
			}
			for j, n := range pulses {
				ref := pts[n].Result
				want := sweepPoint{Pulses: n, ConvergenceSecs: ref.ConvergenceTime.Seconds(), Messages: ref.MessageCount, MaxDamped: ref.MaxDamped}
				if got.Points[j] != want {
					bad = append(bad, fmt.Sprintf("session %d pulses %d: rfdd %+v, in-process %+v", si, n, got.Points[j], want))
				}
			}
		}
	}
	return bad
}

// checkHealthz compares the /healthz deltas over the timed phase with what
// the schedule implies.
func checkHealthz(m *mixResult) []string {
	var bad []string
	distinct, repeated := 0, 0
	for _, p := range sessionPulses {
		distinct += len(p)
	}
	for _, b := range cacheWarmRepeats {
		repeated += len(sessionPulses[b])
	}
	n := uint64(m.sessions)
	check := func(name string, got, want uint64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("healthz %s: %d, the schedule implies %d", name, got, want))
		}
	}
	check("cache_misses", m.after.CacheMisses-m.before.CacheMisses, n*uint64(distinct))
	check("cache_hits", m.after.CacheHits-m.before.CacheHits, n*uint64(repeated))
	check("uncacheable", m.after.Uncacheable-m.before.Uncacheable, 0)
	check("snapshot_misses", m.after.SnapshotMisses-m.before.SnapshotMisses, n)
	check("snapshot_hits", m.after.SnapshotHits-m.before.SnapshotHits, 2*n)
	// Every session is a new base, so the LRU pool evicts once full: at any
	// instant evictions = bases converged - bases still pooled, and a base is
	// never evicted while its own session still needs it (2 clients, 16 slots).
	check("snapshot_evictions", m.after.SnapshotEvictions, m.after.SnapshotMisses-uint64(m.after.SnapshotsPooled))
	if m.after.SnapshotsPooled > m.after.SnapshotCapacity {
		bad = append(bad, fmt.Sprintf("healthz snapshots_pooled %d exceeds capacity %d", m.after.SnapshotsPooled, m.after.SnapshotCapacity))
	}
	if m.rejected > 0 {
		bad = append(bad, fmt.Sprintf("%d requests were refused with 429", m.rejected))
	}
	return bad
}

// digestReplies hashes the distinct reply bodies of the first n sessions.
func digestReplies(replies [][3][]byte, n int) string {
	h := sha256.New()
	for _, r := range replies[:n] {
		for _, body := range r {
			h.Write(body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectedMixSessions is how many leading sessions the recorded digest
// covers.
const expectedMixSessions = 20

func newMixClient(clients int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
}

// startWarmDaemon is rfdd-mix's set-up: build rfdd unless a prebuilt binary
// was given, start it, wait until it is ready, and send the untimed warm-up
// ops (one cold sweep per warm session).
func startWarmDaemon(e *env, httpc *http.Client, warm []session) (*daemon, error) {
	bin := e.rfddBin
	if bin == "" {
		var err error
		if bin, err = buildBinary(e, "rfdd"); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(bin, 1)
	if err != nil {
		return nil, err
	}
	for i := range warm {
		status, data, _, err := post(httpc, d.url+"/v1/sweep", warm[i].bodies[0])
		if err != nil || status != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("warm-up request: HTTP %d %s (%v)", status, bytes.TrimSpace(data), err)
		}
	}
	return d, nil
}

// runRfddMix is rfdd-mix: a real rfdd child on loopback serving a closed
// loop of e.par clients. One op is one HTTP POST /v1/sweep.
func runRfddMix(e *env) (*e2eRun, error) {
	r := &e2eRun{workload: wRfddMix, counters: map[string]string{}}
	clients := e.par
	r.params = fmt.Sprintf("clients=%d (closed loop) rfdd -workers 1 -concurrency 2", clients)
	nSessions := e.scale.ops[wRfddMix]
	sessions := makeSessions(e.seed, e.scale, 0, nSessions)
	warm := makeSessions(e.seed, e.scale, nSessions, numKinds) // one cold sweep of each topology kind
	httpc := newMixClient(clients)
	defer httpc.CloseIdleConnections()

	var d *daemon
	for rep := 0; rep < e.scale.setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startWarmDaemon(e, httpc, warm); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer d.stop()

	pid := d.cmd.Process.Pid
	before, err := d.healthz(httpc)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	m, logs, wall := runClients(httpc, d.url+"/v1/sweep", sessions, clients)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, fmt.Errorf("rfdd died during the timed phase: %v\n%s", err, d.stderr.String())
	}
	m.before = before
	if m.after, err = d.healthz(httpc); err != nil {
		return nil, err
	}
	if r.rssMiB, err = peakRSSMiB(pid); err != nil {
		return nil, err
	}
	r.mix = m
	r.wall = wall.Seconds()
	r.cpu = (cpu1 - cpu0).Seconds()
	for i := range logs {
		r.attempted += logs[i].requests
		for _, f := range logs[i].failures {
			r.fail("%s", f)
		}
	}
	for c := 0; c < numClasses; c++ {
		r.ops = append(r.ops, m.class(c)...)
	}
	// All-class median, per topology kind (see classP50): about three in four
	// requests are cache-warm, so this is the latency of the common request.
	r.opP50 = kindMean(m.kind, median)

	// Output checks, untimed.
	for _, msg := range checkHealthz(m) {
		r.fail("%s", msg)
	}
	if r.failed == 0 { // replies are complete only when every request succeeded
		for _, msg := range verifyReplies(e.scale, sessions, m.replies, e.par) {
			r.fail("%s", msg)
		}
		n := min(expectedMixSessions, nSessions)
		r.counters[fmt.Sprintf("replies_sha256.first%d", n)] = digestReplies(m.replies, n)
	}
	return r, nil
}

// streamTimes is when the events of one /v1/sweep/stream reply arrived,
// measured from the moment the request was sent.
type streamTimes struct {
	warmupDone time.Duration // 0 when no warm-up ran on the request's behalf
	lastPoint  time.Duration
	eof        time.Duration
	points     int
}

// postStream sends one sweep to the streaming endpoint and timestamps every
// NDJSON event on arrival.
func postStream(c *http.Client, url string, body []byte) (streamTimes, error) {
	var st streamTimes
	t0 := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	sawDone := false
	for {
		line, err := rd.ReadBytes('\n')
		at := time.Since(t0)
		if len(line) > 0 {
			var ev struct {
				Event      string `json:"event"`
				Status     string `json:"status"`
				Error      string `json:"error"`
				HTTPStatus int    `json:"http_status"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return st, fmt.Errorf("stream: bad event %q: %v", line, jerr)
			}
			switch {
			case ev.Event == "warmup" && ev.Status == "done":
				st.warmupDone = at
			case ev.Event == "point":
				st.lastPoint = at
				st.points++
			case ev.Event == "done":
				sawDone = true
				if ev.HTTPStatus != http.StatusOK || ev.Error != "" {
					return st, fmt.Errorf("stream: done with status %d: %s", ev.HTTPStatus, ev.Error)
				}
			}
		}
		if err == io.EOF {
			st.eof = at
			break
		}
		if err != nil {
			return st, err
		}
	}
	if !sawDone {
		return st, fmt.Errorf("stream ended without a done event")
	}
	return st, nil
}

func describeClasses(m *mixResult) string {
	var b strings.Builder
	for c := 0; c < numClasses; c++ {
		fmt.Fprintf(&b, "  %-9s p50=%.6f s  %s\n", classNames[c], m.classP50(c), describeTiming(m.class(c)))
	}
	return b.String()
}
