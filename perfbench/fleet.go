package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"kjoin/internal/cluster"
	"kjoin/internal/core"
	"kjoin/internal/rng"
	"kjoin/internal/server"
)

// fleet-read shape: a coordinator over fleetShards in-memory shard
// servers, all on loopback in this process, loaded with fleetObjects
// objects through the coordinator, then driven open-loop at fleetRate
// requests/s: one in fleetJoinEvery of them a /join batch of
// fleetJoinBatch new objects, the rest /query of indexed objects.
const (
	fleetObjects    = 5000
	fleetShards     = 2
	fleetRate       = 120.0
	fleetJoinEvery  = 10
	fleetJoinBatch  = 16
	fleetSetupReps  = 3
	fleetCheckEvery = 10 // every n-th query, and every join, is compared with a single node
)

// fleet is one running coordinator with its shards.
type fleet struct {
	base  string
	stops []func()
}

func (f *fleet) stop() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

// startFleet starts the shards and the coordinator. In a traced run
// every handler is wrapped and the coordinator's shard transport
// records a span per shard request.
func startFleet(e *env, c *corpus, opt core.Options) (*fleet, error) {
	f := &fleet{}
	var shards []cluster.ShardConfig
	for i := 0; i < fleetShards; i++ {
		srv, err := server.NewWithConfig(c.h, opt, server.Config{Seed: derive(e.seed, uint64(30+i))})
		if err != nil {
			f.stop()
			return nil, err
		}
		var h http.Handler = srv
		if e.trace {
			h = e.tr.tracedHandler("server", srv)
		}
		base, stop, err := listen(h)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.stops = append(f.stops, stop)
		shards = append(shards, cluster.ShardConfig{Primary: base})
	}
	var wrap func(http.RoundTripper) http.RoundTripper
	if e.trace {
		wrap = func(rt http.RoundTripper) http.RoundTripper {
			return &tracedTransport{t: e.tr, name: "shard", base: rt}
		}
	}
	shardClient := newClient(e.nproc*fleetShards, wrap)
	f.stops = append(f.stops, shardClient.CloseIdleConnections)
	coord, err := cluster.New(cluster.Config{Shards: shards, HTTP: shardClient, Seed: derive(e.seed, 39)})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.stops = append(f.stops, func() { _ = coord.Close() }) // in-memory coordinator: Close only stops the mover
	var h http.Handler = coord
	if e.trace {
		h = e.tr.tracedHandler("coord", coord)
	}
	base, stop, err := listen(h)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.stops = append(f.stops, stop)
	f.base = base
	return f, nil
}

// loadFleet adds the objects through the coordinator in order and
// returns each object's global id.
func loadFleet(e *env, f *fleet, objs [][]string) ([]int, error) {
	cl := newClient(1, nil)
	defer cl.CloseIdleConnections()
	ids := make([]int, len(objs))
	for i, o := range objs {
		hr, err := http.NewRequest(http.MethodPost, f.base+"/objects", bytes.NewReader(mustJSON(map[string]any{"tokens": o})))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if e.trace {
			id := e.tr.newID()
			hr.Header.Set(headerSpan, strconv.FormatInt(id, 10))
			hr.Header.Set(headerReq, strconv.FormatInt(id, 10))
		}
		out := call(cl, hr)
		if out.err != nil || out.status != http.StatusOK {
			return nil, fmt.Errorf("load object %d: status %d: %v %s", i, out.status, out.err, out.body)
		}
		var a struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(out.body, &a); err != nil {
			return nil, err
		}
		ids[i] = a.ID
	}
	return ids, nil
}

func runFleetRead(e *env) (*report, error) {
	rep := newReport()
	r := rng.New(derive(e.seed, 40))
	nOps := int(fleetRate * e.seconds)
	joins := make([]bool, nOps)
	pool := 0
	for i := range joins {
		if i%fleetJoinEvery == fleetJoinEvery-1 {
			joins[i] = true
			pool += fleetJoinBatch
		}
	}
	c := poiCorpus(e.seed, fleetObjects+pool)
	opt := core.Defaults(serveDelta, serveTau)
	corpusObjs := c.objects[:fleetObjects]

	// Set-up: start the fleet and load it, repeated; the last one serves.
	var setups []float64
	var f *fleet
	var ids []int
	for i := 0; i < fleetSetupReps; i++ {
		if f != nil {
			f.stop()
		}
		if e.trace {
			e.tr = newTracer() // keep only the serving fleet's spans
		}
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		var err error
		if f, err = startFleet(e, c, opt); err != nil {
			return nil, err
		}
		if ids, err = loadFleet(e, f, corpusObjs); err != nil {
			f.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()
	rep.e2e["setup_s"] = median(setups)
	setupSpans := 0
	if e.trace {
		setupSpans = e.tr.len()
	}
	corpusOf := map[int]int{} // global id → corpus index
	for i, g := range ids {
		corpusOf[g] = i
	}

	// The schedule: each indexed object is queried at most once until
	// all have been.
	order := r.Perm(fleetObjects)
	reqs := make([]request, nOps)
	target := make([]int, nOps) // query: corpus index; join: first pool index
	next := fleetObjects
	for i := range reqs {
		if joins[i] {
			target[i] = next
			batch := c.objects[next : next+fleetJoinBatch]
			next += fleetJoinBatch
			reqs[i] = request{kind: "join", path: "/join", body: mustJSON(map[string]any{"objects": batch})}
		} else {
			target[i] = order[(i-i/fleetJoinEvery)%fleetObjects]
			reqs[i] = request{kind: "query", path: "/query", body: mustJSON(map[string]any{"tokens": c.objects[target[i]]})}
		}
	}
	gen := newOpenLoop(f.base, fleetRate, e.nproc, e.tr)
	cpu0 := cpuTime()
	t0 := time.Now()
	outs := gen.run(reqs)
	cpu := cpuTime() - cpu0
	rep.e2e["peak_heap_mb"] = e.heap.peakMB(secondWindows(t0, time.Now()))
	rep.attempted = int64(nOps)

	// The single-node reference: one engine holding the same objects in
	// the same global order.
	ref, err := core.NewIndexer(c.h, opt)
	if err != nil {
		return nil, err
	}
	for g := 0; g < len(ids); g++ {
		if err := ref.ApplyLogged(uint64(g+1), corpusObjs[corpusOf[g]]); err != nil {
			return nil, err
		}
	}
	refQuery := func(tokens []string) ([]match, error) {
		got, err := ref.Query(tokens)
		out := make([]match, len(got))
		for i, m := range got {
			out[i] = match{m.Index, m.Sim}
		}
		return out, err
	}

	var found [][2]int
	asked, joined := map[int]bool{}, map[int]bool{}
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			rep.failed++
			continue
		}
		if cov := o.header.Get(cluster.HeaderCoverage); cov != fmt.Sprintf("%d/%d", fleetShards, fleetShards) {
			rep.mismatch("request %d: coverage %q", i, cov)
		}
		if joins[i] {
			per, err := decodeJoin(o.body, fleetJoinBatch)
			if err != nil {
				rep.mismatch("join %d: %v", i, err)
				continue
			}
			for x, matches := range per {
				obj := target[i] + x
				joined[obj] = true
				for _, m := range matches {
					found = append(found, [2]int{corpusOf[m.idx], obj})
				}
				if want, err := refQuery(c.objects[obj]); err != nil || !sameMatches(matches, want) {
					rep.mismatch("join %d object %d: fleet answered %d matches, single node %d (%v)", i, x, len(matches), len(want), err)
				}
			}
			continue
		}
		matches, err := decodeMatches(o.body)
		if err != nil {
			rep.mismatch("query %d: %v", i, err)
			continue
		}
		asked[target[i]] = true
		self := false
		for _, m := range matches {
			if corpusOf[m.idx] == target[i] {
				self = true
			} else {
				found = append(found, [2]int{target[i], corpusOf[m.idx]})
			}
		}
		if !self {
			rep.mismatch("query %d for indexed object %d did not return it", i, target[i])
		}
		if i%fleetCheckEvery == 0 {
			want, err := refQuery(c.objects[target[i]])
			if err != nil || !sameMatches(matches, want) {
				rep.mismatch("query %d: fleet answered %d matches, single node %d (%v)", i, len(matches), len(want), err)
			}
		}
	}
	rep.e2e["f1"] = f1Within(found, c.truth, func(p [2]int) bool {
		return p[0] < fleetObjects && (p[1] < fleetObjects && (asked[p[0]] || asked[p[1]]) || joined[p[1]])
	})
	lat := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && o.status == http.StatusOK })
	rep.e2e["op_p50_ms"] = median(lat[""])
	rep.e2e["cpu_ms_per_op"] = ms(cpu) / float64(nOps)

	if e.trace {
		rep.layer["query_p50_ms"] = median(lat["query"])
		rep.layer["query_p99_ms"] = quantile(lat["query"], 0.99)
		rep.layer["join_p50_ms"] = median(lat["join"])
		rep.layer["join_p99_ms"] = quantile(lat["join"], 0.99)
		rep.layer["gen.late_max_ms"] = ms(gen.lateMax)
		var st struct {
			Hedges  float64 `json:"hedges_total"`
			Retries float64 `json:"retries_total"`
		}
		admin := newClient(1, nil)
		err := getJSON(admin, f.base+"/stats", &st)
		admin.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		rep.layer["cluster.hedges"] = st.Hedges
		rep.layer["cluster.retries"] = st.Retries
		fleetLayers(e, rep, reqs, outs, setupSpans)
	}
	return rep, nil
}

// decodeJoin parses a /join answer into per-batch-object matches.
func decodeJoin(body []byte, n int) ([][]match, error) {
	var j struct {
		Pairs []struct {
			X   int     `json:"x"`
			Y   int     `json:"y"`
			Sim float64 `json:"sim"`
		} `json:"pairs"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		return nil, err
	}
	out := make([][]match, n)
	for _, p := range j.Pairs {
		if p.X < 0 || p.X >= n {
			return nil, fmt.Errorf("pair names batch object %d of %d", p.X, n)
		}
		out[p.X] = append(out[p.X], match{p.Y, p.Sim})
	}
	return out, nil
}

// fleetLayers turns the fleet's spans into per-layer metrics. Spans
// before setupSpans were recorded while loading the corpus.
func fleetLayers(e *env, rep *report, reqs []request, outs []outcome, setupSpans int) {
	spans := e.tr.snapshot()
	setup, timed := spans[:setupSpans], spans[setupSpans:]
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "shard/query" || s.Name == "shard/objects" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	perParent := func(all []span, name string) (float64, []float64) {
		var n, reqsTotal int
		var merge []float64
		for _, s := range byName(all, name) {
			n++
			reqsTotal += len(kids[s.ID])
			var slowest time.Duration
			for _, k := range kids[s.ID] {
				slowest = max(slowest, k.dur())
			}
			merge = append(merge, ms(s.dur()-slowest))
		}
		if n == 0 {
			return 0, nil
		}
		return float64(reqsTotal) / float64(n), merge
	}
	perQuery, mergeQ := perParent(timed, "coord/query")
	perJoin, _ := perParent(timed, "coord/join")
	perAdd, _ := perParent(setup, "coord/objects")
	rep.layer["cluster.shard_requests_per_query"] = perQuery
	rep.layer["cluster.shard_requests_per_join"] = perJoin
	rep.layer["cluster.add_shard_requests"] = perAdd
	rep.layer["cluster.merge_ms"] = median(mergeQ)
	rep.layer["cluster.shard_rtt_ms"] = median(durationsMs(byName(timed, "shard/query")))
	rep.layer["cluster.add_ms"] = median(durationsMs(byName(setup, "coord/objects")))
	rep.layer["server.query_handler_ms"] = median(durationsMs(byName(timed, "server/query")))
	var qs []float64
	for _, d := range selfTimes(timed)["client/query"] {
		qs = append(qs, ms(d))
	}
	rep.layer["http.query_self_ms"] = median(qs)
	tq := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && o.traced })
	pq := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && !o.traced })
	if p := median(pq["query"]); p > 0 {
		rep.layer["trace.overhead_ratio"] = median(tq["query"]) / p
	}
}
