// Command rfdd serves the flap-damping experiment pipeline over HTTP: sweep
// and figure requests run through a shared worker pool and a byte-bounded
// in-memory run cache with singleflight, so repeated requests for the same
// scenario are served without re-simulating. A restart starts cold.
//
// Endpoints:
//
//	POST /v1/sweep         JSON sweep request -> JSON points (partial on failure)
//	POST /v1/sweep/stream  same request -> NDJSON progress events (warmup,
//	                       per-point as each completes, terminal done summary)
//	GET  /v1/figure        ?name=table1|fig3|fig8|fig9|fig13|fig14 [&small=1]
//	                       [&timeout_ms=N] -> CSV
//	GET  /healthz          liveness + cache/admission/stream/memo statistics (JSON)
//
// Operational behaviour:
//
//   - Admission control: at most -concurrency requests simulate at once and
//     at most -queue more wait; beyond that the daemon answers 429 instead of
//     accepting unbounded work.
//   - Deadlines: every request runs under a context bounded by -timeout (a
//     request may ask for less via "timeout_ms", never for more). Exceeding
//     it returns 504 with the typed budget error; the simulation stops
//     within one kernel poll interval.
//   - Panic isolation: a panicking run fails its own request (and only it)
//     with a quarantined stack fingerprint; the daemon keeps serving.
//   - Graceful drain: SIGTERM/SIGINT stops accepting connections, lets
//     in-flight requests finish (bounded by -drain), then exits 0.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rfd/experiment"
	"rfd/internal/cli"
)

func main() { cli.Main("rfdd", serve) }

func serve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rfdd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers     = fs.Int("workers", runtime.NumCPU(), "parallel simulation runs per sweep")
		queue       = fs.Int("queue", 16, "max requests waiting for a simulation slot before 429")
		concurrency = fs.Int("concurrency", 2, "max requests simulating at once")
		timeout     = fs.Duration("timeout", 5*time.Minute, "per-request deadline cap")
		drain       = fs.Duration("drain", 30*time.Second, "shutdown drain bound for in-flight requests")
		snapshots   = fs.Int("snapshots", experiment.DefaultPoolSize, "converged-snapshot pool capacity, counting parked sweep trunks too (0 disables warm-up reuse)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := newServer(serverConfig{
		Workers:     *workers,
		Queue:       *queue,
		Concurrency: *concurrency,
		Timeout:     *timeout,
		Snapshots:   *snapshots,
	})
	return run(ctx, *addr, *drain, srv)
}

// run serves until ctx trips, then drains.
func run(ctx context.Context, addr string, drain time.Duration, srv *server) error {
	httpSrv := &http.Server{Addr: addr, Handler: srv.routes()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("rfdd: listening on %s (workers %d, concurrency %d, queue %d, timeout %v)",
		addr, srv.cfg.Workers, srv.cfg.Concurrency, srv.cfg.Queue, srv.cfg.Timeout)
	select {
	case err := <-errc:
		return err // bind failure etc.
	case <-ctx.Done():
	}
	log.Printf("rfdd: shutdown signal received, draining (bound %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("rfdd: drained cleanly")
	return nil
}

// serverConfig sizes the daemon. The run cache is not configured here: it keeps
// experiment.DefaultCacheBytes of the most recently used Results in memory.
type serverConfig struct {
	Workers     int
	Queue       int
	Concurrency int
	Timeout     time.Duration
	// Snapshots bounds the converged-snapshot pool (warm-up states keyed by
	// scenario fingerprint, and the sweep trunks parked beside them;
	// LRU-evicted). <= 0 disables the pool.
	Snapshots int
}

// server is the shared state behind every request: one run cache (bounded in
// memory by bytes), the converged-snapshot pool, the topologies of recently
// requested shapes, and the admission-control semaphores. Each of the three
// memories is bounded, so the daemon's heap is bounded by what it serves, not
// by how long it has run.
type server struct {
	cfg     serverConfig
	cache   *experiment.RunCache
	pool    *experiment.CheckpointPool // nil when disabled
	graphs  *graphMemo
	started time.Time

	// Admission control: queueSlots bounds waiting+running requests;
	// runSlots bounds running ones. A request that cannot take a queue slot
	// immediately is rejected with 429.
	queueSlots chan struct{}
	runSlots   chan struct{}

	// Stream telemetry: requests currently emitting NDJSON, and the total
	// number of per-point events streamed since startup.
	streamsActive  atomic.Int64
	streamedPoints atomic.Uint64
}

func newServer(cfg serverConfig) *server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	// A shape not worth a pooled snapshot is not worth remembering, so the
	// graph memo takes the snapshot pool's bound.
	shapes := cfg.Snapshots
	if shapes <= 0 {
		shapes = experiment.DefaultPoolSize
	}
	s := &server{
		cfg:        cfg,
		cache:      experiment.NewRunCache(),
		graphs:     newGraphMemo(shapes),
		started:    time.Now(),
		queueSlots: make(chan struct{}, cfg.Queue+cfg.Concurrency),
		runSlots:   make(chan struct{}, cfg.Concurrency),
	}
	if cfg.Snapshots > 0 {
		s.pool = experiment.NewCheckpointPool(cfg.Snapshots)
		s.cache.SetCheckpointPool(s.pool)
	}
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/sweep", s.handleSweep(false))
	mux.HandleFunc("/v1/sweep/stream", s.handleSweep(true))
	mux.HandleFunc("/v1/figure", s.handleFigure)
	return mux
}

// admit takes an admission slot, or fails with 429 when the queue is full.
// The returned release function must be called exactly once.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.queueSlots <- struct{}{}:
	default:
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d waiting + %d running)", s.cfg.Queue, s.cfg.Concurrency))
		return nil, false
	}
	// Wait for a run slot, but give up if the client goes away first.
	select {
	case s.runSlots <- struct{}{}:
	case <-r.Context().Done():
		<-s.queueSlots
		httpError(w, statusForErr(experiment.ErrCanceled), experiment.ErrCanceled)
		return nil, false
	}
	return func() {
		<-s.runSlots
		<-s.queueSlots
	}, true
}

// requestContext bounds r's context by the server timeout, tightened to the
// request's own timeout_ms when smaller. The two are compared in milliseconds,
// so a timeout_ms too large for a time.Duration leaves the cap in place.
func (s *server) requestContext(r *http.Request, requestedMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if requestedMS > 0 && requestedMS <= d.Milliseconds() {
		d = time.Duration(requestedMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// sweepRequest is the POST /v1/sweep body: the run's experiment.Spec — a
// topology by shape, so every scenario the daemon runs is reproducible from
// the request alone, as the content-addressed cache needs — whose left-out
// fields take the reduced scale (experiment.SmallOptions), and a deadline.
type sweepRequest struct {
	experiment.Spec
	// TimeoutMS tightens (never loosens) the server's per-request deadline.
	TimeoutMS int64 `json:"timeout_ms"`
}

// sweepResponse is the JSON reply: one entry per requested pulse count, in
// request order. Failed points carry an error and no data — a single bad
// point does not void its neighbours.
type sweepResponse struct {
	Points []sweepPointJSON `json:"points"`
	Error  string           `json:"error,omitempty"`
}

type sweepPointJSON struct {
	Pulses          int     `json:"pulses"`
	ConvergenceSecs float64 `json:"convergence_s,omitempty"`
	Messages        int     `json:"messages,omitempty"`
	MaxDamped       int     `json:"max_damped,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// decodeSweep parses and validates a sweep request body, writing the 4xx
// reply itself on failure. Shared by the buffered and streaming endpoints so
// both reject the exact same inputs before admission control.
func (s *server) decodeSweep(w http.ResponseWriter, r *http.Request) (req sweepRequest, base experiment.Scenario, pulses []int, ok bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return req, base, nil, false
	}
	// Strict decoding: a misspelt field ("pulse") or bytes after the object
	// would otherwise be dropped and the sweep answered 200 from defaults.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("trailing data after the request object")
		}
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return req, base, nil, false
	}
	// The graph memo is consulted last, once everything has validated.
	base, pulses, err = req.Scenario(experiment.SmallOptions(), s.graphs.get)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return req, base, nil, false
	}
	base.NoSeries = true // a reply reads three scalars
	return req, base, pulses, true
}

// pointsJSON renders sweep points in the wire form shared by the buffered
// response and the stream's per-point/terminal events.
func pointsJSON(pts []experiment.SweepPoint) []sweepPointJSON {
	out := make([]sweepPointJSON, len(pts))
	for i, p := range pts {
		out[i] = pointJSON(p)
	}
	return out
}

// pointJSON renders one sweep point.
func pointJSON(p experiment.SweepPoint) sweepPointJSON {
	pt := sweepPointJSON{Pulses: p.Pulses}
	if p.Err != nil {
		pt.Error = p.Err.Error()
		return pt
	}
	pt.ConvergenceSecs = p.Result.ConvergenceTime.Seconds()
	pt.Messages = p.Result.MessageCount
	pt.MaxDamped = p.Result.MaxDamped
	return pt
}

// streamEvent is one NDJSON line of POST /v1/sweep/stream. Event is "warmup",
// "point" or "done":
//
//   - warmup: Status "started" then "done" while a convergence warm-up runs on
//     the request's behalf (absent when the converged snapshot was pooled and
//     every point was cache-served).
//   - point: one per pulse count, in completion order. Cached distinguishes a
//     cache/singleflight-served point from a live run; Point carries exactly
//     the object the buffered endpoint would return for it.
//   - done: terminal summary. Points is the full buffered-identical array (in
//     request order), Error the joined sweep error, HTTPStatus the status the
//     buffered endpoint would have answered, plus per-request and server-wide
//     cache/snapshot counters.
type streamEvent struct {
	Event  string          `json:"event"`
	Status string          `json:"status,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Point  *sweepPointJSON `json:"point,omitempty"`

	// done-only fields.
	Points       []sweepPointJSON `json:"points,omitempty"`
	Error        string           `json:"error,omitempty"`
	HTTPStatus   int              `json:"http_status,omitempty"`
	LivePoints   int              `json:"live_points,omitempty"`
	CachedPoints int              `json:"cached_points,omitempty"`
	CacheHits    uint64           `json:"cache_hits,omitempty"`
	CacheMisses  uint64           `json:"cache_misses,omitempty"`
	SnapshotHits uint64           `json:"snapshot_hits,omitempty"`
	SnapshotMiss uint64           `json:"snapshot_misses,omitempty"`
}

// eventStream serializes NDJSON events onto one response. The sweep's worker
// goroutines report concurrently, and http.ResponseWriter is not safe for
// concurrent use, so every write holds the mutex and flushes before release —
// a client reading the connection sees each event as soon as it happened.
// live and cached count the point events streamed so far, by kind.
type eventStream struct {
	mu           sync.Mutex
	enc          *json.Encoder
	fl           http.Flusher
	live, cached atomic.Int64
}

func (es *eventStream) emit(ev streamEvent) {
	es.mu.Lock()
	defer es.mu.Unlock()
	// Encode errors mean the client went away; the sweep keeps running for
	// the cache's benefit and the context tear-down ends it if it was live.
	if es.enc.Encode(ev) == nil {
		es.fl.Flush()
	}
}

// progress returns the hooks that stream a sweep's warm-up and point events,
// each point counted on the stream and in streamed.
func (es *eventStream) progress(streamed *atomic.Uint64) *experiment.Progress {
	point := func(n *atomic.Int64, cached bool) func(experiment.SweepPoint) {
		return func(p experiment.SweepPoint) {
			n.Add(1)
			streamed.Add(1)
			pt := pointJSON(p)
			es.emit(streamEvent{Event: "point", Cached: cached, Point: &pt})
		}
	}
	return &experiment.Progress{
		WarmupStarted: func() { es.emit(streamEvent{Event: "warmup", Status: "started"}) },
		WarmupDone:    func() { es.emit(streamEvent{Event: "warmup", Status: "done"}) },
		PointDone:     point(&es.live, false),
		CacheHit:      point(&es.cached, true),
	}
}

// handleSweep serves POST /v1/sweep and, when stream is set, POST
// /v1/sweep/stream: the same request, admission control, deadlines, panic
// isolation and partial-result semantics. The buffered reply is one JSON
// document. The streamed one is NDJSON progress events: a warm-up event pair
// when a convergence runs, one point event as each pulse count settles (cache
// hits flagged), and a terminal done event whose Points array is
// byte-identical to the buffered reply's.
func (s *server) handleSweep(stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, base, pulses, ok := s.decodeSweep(w, r)
		if !ok {
			return
		}
		fl, ok := w.(http.Flusher)
		if stream && !ok {
			httpError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
			return
		}
		release, admitted := s.admit(w, r)
		if !admitted {
			return
		}
		defer release()
		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()

		var es *eventStream
		if stream {
			s.streamsActive.Add(1)
			defer s.streamsActive.Add(-1)
			// From here on the response is committed: failures ride in the
			// terminal done event (with the status the buffered endpoint would
			// have used), because the 200 header is already on the wire.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			es = &eventStream{enc: json.NewEncoder(w), fl: fl}
			ctx = experiment.WithProgress(ctx, es.progress(&s.streamedPoints))
		}

		pts, sweepErr := s.cache.SweepContext(ctx, base, pulses, s.cfg.Workers)
		// Partial results still ship, with the status telling the class of
		// failure: deadline -> 504, cancel -> 499-style 503, else 500.
		status, errMsg := http.StatusOK, ""
		if sweepErr != nil {
			status, errMsg = statusForErr(sweepErr), sweepErr.Error()
		}
		if !stream {
			writeJSON(w, status, sweepResponse{Points: pointsJSON(pts), Error: errMsg})
			return
		}
		done := streamEvent{
			Event:        "done",
			HTTPStatus:   status,
			Error:        errMsg,
			Points:       pointsJSON(pts),
			LivePoints:   int(es.live.Load()),
			CachedPoints: int(es.cached.Load()),
		}
		done.CacheHits, done.CacheMisses, _ = s.cache.Stats()
		if s.pool != nil {
			done.SnapshotHits, done.SnapshotMiss, _ = s.pool.Stats()
		}
		es.emit(done)
	}
}

func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	// The eval figures honor the same per-request budget tightening as
	// /v1/sweep; previously the query parameter was silently ignored and a
	// figure request could only be bounded by the server-wide -timeout.
	timeoutMS, err := strconv.ParseInt(cmp.Or(q.Get("timeout_ms"), "0"), 10, 64)
	if err != nil || timeoutMS < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", q.Get("timeout_ms")))
		return
	}
	// small is read by value: small=0 asks for the paper's scale.
	small, err := strconv.ParseBool(cmp.Or(q.Get("small"), "false"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad small %q (want a boolean)", q.Get("small")))
		return
	}
	opts := experiment.DefaultOptions()
	if small {
		opts = experiment.SmallOptions()
	}
	opts.Workers = s.cfg.Workers
	opts.Cache = s.cache

	// table1 and fig3 are cheap (analytic); the eval figures simulate and go
	// through admission control like any sweep.
	switch name {
	case "table1":
		w.Header().Set("Content-Type", "text/csv")
		if err := experiment.WriteTable1CSV(w); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	case "fig3":
		data, err := experiment.Fig3(opts)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		if err := data.WriteCSV(w); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	case "fig8", "fig9", "fig13", "fig14":
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.requestContext(r, timeoutMS)
		defer cancel()
		opts.Ctx = ctx
		data, err := experiment.Eval(opts)
		if err != nil {
			httpError(w, statusForErr(err), err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		var werr error
		switch name {
		case "fig8":
			werr = data.WriteFig8CSV(w)
		case "fig9":
			werr = data.WriteFig9CSV(w)
		case "fig13":
			werr = data.WriteFig13CSV(w)
		case "fig14":
			werr = data.WriteFig14CSV(w)
		}
		if werr != nil {
			httpError(w, http.StatusInternalServerError, werr)
		}
		return
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown figure %q (want table1, fig3, fig8, fig9, fig13 or fig14)", name))
	}
}

// healthz reports liveness plus the statistics an operator watches: cache
// effectiveness and admission pressure.
type healthz struct {
	Status        string  `json:"status"`
	UptimeSecs    float64 `json:"uptime_s"`
	Running       int     `json:"running"`
	Queued        int     `json:"queued"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	Uncacheable   uint64  `json:"uncacheable"`
	Concurrency   int     `json:"concurrency"`
	QueueCapacity int     `json:"queue_capacity"`
	// Run cache residency: Results held now, their estimated bytes (bounded
	// by experiment.DefaultCacheBytes), and Results the bound has evicted.
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// Streaming: requests currently emitting NDJSON on /v1/sweep/stream, and
	// the total point events streamed since startup.
	StreamsActive  int64  `json:"streams_active"`
	StreamedPoints uint64 `json:"streamed_points"`
	// Snapshot pool: warm-up reuse. A snapshot hit means a cache-miss request
	// skipped its convergence phase by forking a pooled checkpoint.
	SnapshotCapacity  int    `json:"snapshot_capacity"`
	SnapshotsPooled   int    `json:"snapshots_pooled"`
	SnapshotHits      uint64 `json:"snapshot_hits"`
	SnapshotMisses    uint64 `json:"snapshot_misses"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
	// Parked sweep trunks: entries holding one now, and sweeps that resumed
	// one instead of flapping from pulse 0.
	FlightsParked int    `json:"flights_parked"`
	FlightResumes uint64 `json:"flight_resumes"`
	// Scenario memo: topologies kept per request shape. A hit means a sweep
	// request built (and hashed) no graph.
	ScenarioMemoHits   uint64 `json:"scenario_memo_hits"`
	ScenarioMemoMisses uint64 `json:"scenario_memo_misses"`
	ScenarioMemoSize   int    `json:"scenario_memo_size"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hits, misses, uncacheable := s.cache.Stats()
	running := len(s.runSlots)
	// The two channel reads are not atomic with each other: a request can
	// take its run slot between them, making the difference transiently
	// negative under churn. A negative queue depth is never real — clamp.
	queued := len(s.queueSlots) - running
	if queued < 0 {
		queued = 0
	}
	h := healthz{
		Status:         "ok",
		UptimeSecs:     time.Since(s.started).Seconds(),
		Running:        running,
		Queued:         queued,
		CacheHits:      hits,
		CacheMisses:    misses,
		Uncacheable:    uncacheable,
		Concurrency:    s.cfg.Concurrency,
		QueueCapacity:  s.cfg.Queue,
		StreamsActive:  s.streamsActive.Load(),
		StreamedPoints: s.streamedPoints.Load(),
	}
	h.CacheEntries, h.CacheBytes, h.CacheEvictions = s.cache.Resident()
	h.ScenarioMemoHits, h.ScenarioMemoMisses, h.ScenarioMemoSize = s.graphs.stats()
	if s.pool != nil {
		h.SnapshotCapacity = s.cfg.Snapshots
		h.SnapshotsPooled = s.pool.Len()
		h.SnapshotHits, h.SnapshotMisses, h.SnapshotEvictions = s.pool.Stats()
	}
	h.FlightsParked, h.FlightResumes = s.pool.Flights()
	writeJSON(w, http.StatusOK, h)
}

// statusForErr maps the experiment error taxonomy to HTTP statuses.
func statusForErr(err error) int {
	switch {
	case errors.Is(err, experiment.ErrBudgetExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, experiment.ErrCanceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
