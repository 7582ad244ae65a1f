package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postStream posts body to /v1/sweep/stream and parses the NDJSON reply.
func postStream(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, []streamEvent) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep/stream", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	return rec, decodeStream(t, rec.Body.String())
}

func decodeStream(t *testing.T, body string) []streamEvent {
	t.Helper()
	var evs []streamEvent
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSweepStreamEndpoint pins the stream contract end to end: NDJSON content
// type, warm-up events before point events before the terminal done, one point
// event per pulse count, and a done.points array byte-identical to what the
// buffered endpoint returns for the same request.
func TestSweepStreamEndpoint(t *testing.T) {
	const body = `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1,2]}`

	s := testServer(t, serverConfig{Snapshots: 4})
	rec, evs := postStream(t, s.routes(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	// Event ordering: warmup+ then point+ then exactly one terminal done.
	var phase int // 0 warmup, 1 points, 2 done
	var warmups, points int
	var done *streamEvent
	for i := range evs {
		ev := &evs[i]
		switch ev.Event {
		case "warmup":
			if phase > 0 {
				t.Fatalf("warmup event after %q phase: %+v", ev.Status, evs)
			}
			warmups++
		case "point":
			if phase > 1 {
				t.Fatalf("point event after done: %+v", evs)
			}
			phase = 1
			points++
			if ev.Point == nil || ev.Cached {
				t.Fatalf("live point event malformed: %+v", ev)
			}
		case "done":
			phase = 2
			done = ev
		default:
			t.Fatalf("unknown event %q", ev.Event)
		}
	}
	if warmups != 2 || evs[0].Status != "started" || evs[1].Status != "done" {
		t.Fatalf("warm-up events = %d (%+v), want started+done first", warmups, evs[:2])
	}
	if points != 3 {
		t.Fatalf("point events = %d, want 3", points)
	}
	if done == nil || evs[len(evs)-1].Event != "done" {
		t.Fatal("no terminal done event")
	}
	if done.Error != "" || done.HTTPStatus != http.StatusOK {
		t.Fatalf("done = %+v, want clean 200", done)
	}
	if done.LivePoints != 3 || done.CachedPoints != 0 {
		t.Fatalf("done counters = %d live / %d cached, want 3/0", done.LivePoints, done.CachedPoints)
	}

	// Byte-identical results: the buffered endpoint on an identical fresh
	// server must return exactly the points the stream's done event carries.
	s2 := testServer(t, serverConfig{Snapshots: 4})
	bufRec, bufResp := postSweep(t, s2.routes(), body)
	if bufRec.Code != http.StatusOK {
		t.Fatalf("buffered status = %d", bufRec.Code)
	}
	streamed, err := json.Marshal(done.Points)
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := json.Marshal(bufResp.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, buffered) {
		t.Fatalf("streamed points != buffered points:\n%s\n%s", streamed, buffered)
	}

	// Per-point events must carry the same objects as the done array.
	byPulses := map[int]*sweepPointJSON{}
	for i := range evs {
		if evs[i].Event == "point" {
			byPulses[evs[i].Point.Pulses] = evs[i].Point
		}
	}
	for _, p := range done.Points {
		got, ok := byPulses[p.Pulses]
		if !ok {
			t.Fatalf("no point event for n=%d", p.Pulses)
		}
		if *got != p {
			t.Fatalf("point event n=%d = %+v, done carries %+v", p.Pulses, *got, p)
		}
	}

	// Telemetry: counters moved, gauge is back to zero.
	if n := s.streamedPoints.Load(); n != 3 {
		t.Fatalf("streamed_points = %d, want 3", n)
	}
	if n := s.streamsActive.Load(); n != 0 {
		t.Fatalf("streams_active = %d after completion, want 0", n)
	}
}

// TestSweepStreamCachedFlag: repeating a streamed request serves every point
// from the shared cache — flagged cached, with no warm-up events.
func TestSweepStreamCachedFlag(t *testing.T) {
	const body = `{"rows":4,"cols":4,"damping":"cisco","pulses":[0,1]}`
	s := testServer(t, serverConfig{Snapshots: 4})
	if rec, _ := postStream(t, s.routes(), body); rec.Code != http.StatusOK {
		t.Fatalf("first stream status = %d", rec.Code)
	}
	_, evs := postStream(t, s.routes(), body)
	var cached, live, warmups int
	for _, ev := range evs {
		switch ev.Event {
		case "warmup":
			warmups++
		case "point":
			if ev.Cached {
				cached++
			} else {
				live++
			}
		}
	}
	if warmups != 0 || cached != 2 || live != 0 {
		t.Fatalf("repeat stream = %d warmups / %d cached / %d live, want 0/2/0", warmups, cached, live)
	}
	done := evs[len(evs)-1]
	if done.Event != "done" || done.CachedPoints != 2 || done.LivePoints != 0 {
		t.Fatalf("done = %+v, want 2 cached points", done)
	}
	if done.CacheHits == 0 {
		t.Fatal("done event carries no server cache counters")
	}
}

// TestSweepStreamPartialFailure: a failing point leaves the terminal done
// shipping every healthy point and the failed one's error, flagging the
// status the buffered endpoint would have answered (it is too late to change
// the 200). Whether the failed point also streams an event of its own depends
// on where its deadline trips: before the point is queued, or while it runs.
func TestSweepStreamPartialFailure(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	warmPartial(t, h)
	rec, evs := postStream(t, h, partialSweep)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (headers are committed before the sweep runs)", rec.Code)
	}
	done := evs[len(evs)-1]
	if done.Event != "done" || done.Error == "" || done.HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("done = %+v, want error + http_status 504", done)
	}
	for _, ev := range evs {
		if ev.Event == "point" && ev.Point.Error != "" && ev.Point.Pulses != 10 {
			t.Fatalf("healthy point streamed an error: %+v", ev.Point)
		}
	}
	for _, p := range done.Points {
		if healthy := p.Pulses < 10; healthy != (p.Error == "") {
			t.Fatalf("done point %+v: want an error on the point past its deadline only", p)
		}
	}
}

// TestSweepStreamBadRequest: validation failures reject before any event (or
// admission slot) with the same 400s as the buffered endpoint.
func TestSweepStreamBadRequest(t *testing.T) {
	s := testServer(t, serverConfig{})
	h := s.routes()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep/stream",
		bytes.NewReader([]byte(`{"rows":100000,"cols":100000}`)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 before streaming", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/sweep/stream", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", rec.Code)
	}
}

// TestStreamConcurrency interleaves streamed sweeps, buffered sweeps and
// healthz polls on one server. Under -race this is the stream's integration
// race check (the eventStream mutex against the worker pool, the atomic
// telemetry against healthz).
func TestStreamConcurrency(t *testing.T) {
	s := testServer(t, serverConfig{Snapshots: 4, Concurrency: 4, Queue: 16})
	h := s.routes()
	var workload sync.WaitGroup
	errs := make(chan error, 16)

	for i := 0; i < 3; i++ {
		workload.Add(1)
		go func(i int) {
			defer workload.Done()
			body := fmt.Sprintf(`{"rows":4,"cols":4,"damping":"cisco","pulses":[%d,%d]}`, i, i+1)
			rec, evs := postStream(t, h, body)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("stream %d status %d", i, rec.Code)
				return
			}
			if len(evs) == 0 || evs[len(evs)-1].Event != "done" {
				errs <- fmt.Errorf("stream %d has no terminal done", i)
				return
			}
			if e := evs[len(evs)-1].Error; e != "" {
				errs <- fmt.Errorf("stream %d done error: %s", i, e)
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		workload.Add(1)
		go func(i int) {
			defer workload.Done()
			body := fmt.Sprintf(`{"rows":4,"cols":4,"damping":"cisco","pulses":[%d]}`, i)
			rec, resp := postSweep(t, h, body)
			if rec.Code != http.StatusOK || resp.Error != "" {
				errs <- fmt.Errorf("buffered %d status %d error %q", i, rec.Code, resp.Error)
			}
		}(i)
	}

	// A healthz poller churns alongside the sweeps until the workload drains.
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var hz healthz
			if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
				errs <- fmt.Errorf("healthz mid-churn: %v", err)
				return
			}
			if hz.Queued < 0 || hz.StreamsActive < 0 {
				errs <- fmt.Errorf("healthz negative gauges: %+v", hz)
				return
			}
		}
	}()

	workload.Wait()
	close(stop)
	<-pollerDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.streamsActive.Load(); n != 0 {
		t.Fatalf("streams_active = %d after drain, want 0", n)
	}
}

// TestStreamGracefulDrain runs the real serve loop, starts a streamed sweep,
// fires the shutdown signal mid-stream, and checks the stream still ends with
// a terminal done event and the server drains cleanly — the mid-stream
// SIGTERM contract.
func TestStreamGracefulDrain(t *testing.T) {
	s := testServer(t, serverConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srvErr := make(chan error, 1)
	addr := "127.0.0.1:18474"
	go func() { srvErr <- run(ctx, addr, 30*time.Second, s) }()
	waitHealthy(t, addr)

	type outcome struct {
		evs []streamEvent
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/sweep/stream", "application/json",
			strings.NewReader(`{"rows":5,"cols":5,"damping":"cisco","pulses":[0,1,2,3]}`))
		if err != nil {
			got <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var evs []streamEvent
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev streamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				got <- outcome{err: err}
				return
			}
			evs = append(evs, ev)
		}
		got <- outcome{evs: evs, err: sc.Err()}
	}()
	time.Sleep(20 * time.Millisecond) // let the stream reach the handler
	cancel()                          // stands in for SIGTERM (same ctx path)

	select {
	case o := <-got:
		if o.err != nil {
			t.Fatalf("stream failed during drain: %v", o.err)
		}
		if len(o.evs) == 0 || o.evs[len(o.evs)-1].Event != "done" {
			t.Fatalf("stream did not end with a terminal done event: %+v", o.evs)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream never completed during drain")
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatalf("serve loop exited with %v, want clean drain", err)
		}
	case <-time.After(35 * time.Second):
		t.Fatal("serve loop did not exit after the drain")
	}
}
