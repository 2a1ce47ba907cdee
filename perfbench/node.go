package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kjoin/internal/core"
	"kjoin/internal/elem"
	"kjoin/internal/rng"
	"kjoin/internal/server"
	"kjoin/internal/serverutil"
	"kjoin/internal/wal"
)

// node-mixed shape: a durable node recovered from a snapshot generation
// of nodeSnapshot objects plus a WAL tail of nodeTail adds, then driven
// open-loop at nodeRate requests/s, one in nodeAddEvery of them an add
// of a new object and the rest queries of indexed objects. Adds are fsync'd
// before their acknowledgment (kjoin-serve's default -wal-sync always,
// no group-commit window).
const (
	nodeSnapshot   = 10000
	nodeTail       = 500
	nodeRate       = 200.0
	nodeAddEvery   = 5
	nodeSetupReps  = 21
	nodeCheckScans = 10 // brute-force-checked queries
	nodeReplayOps  = 600
	nodeWALProbes  = 200
	// nodeSaturateCap bounds the requests a saturation run prepares per
	// second; it is well above what two CPUs serve.
	nodeSaturateCap = 4000.0
)

// serveDelta and serveTau are the thresholds of the served workloads.
// τ sits below batch-poi's so the quality of the answers (F1 against
// the planted truth, about 0.6 here) is measured on enough found pairs
// to repeat from seed to seed; at τ=0.85 recall is under 0.2.
const serveDelta, serveTau = 0.8, 0.75

func nodeOptions() core.Options { return core.Defaults(serveDelta, serveTau) }

// nodeState is the durable state a node recovers from.
type nodeState struct{ walDir, snapDir string }

func runNodeMixed(e *env) (*report, error) {
	rep := newReport()
	r := rng.New(derive(e.seed, 20))
	rate := nodeRate
	if e.saturate {
		rate = nodeSaturateCap
	}
	nOps := int(rate * e.seconds)
	// Every nodeAddEvery-th request is an add: a fixed mix, so runs of
	// different seeds do the same amount of each kind of work.
	kinds := make([]bool, nOps) // true: add
	adds := 0
	for i := range kinds {
		if i%nodeAddEvery == nodeAddEvery-1 {
			kinds[i] = true
			adds++
		}
	}
	indexed := nodeSnapshot + nodeTail
	c := poiCorpus(e.seed, indexed+adds)
	opt := nodeOptions()

	pristine, err := buildNodeState(filepath.Join(e.work, "pristine"), c, opt)
	if err != nil {
		return nil, err
	}

	// Set-up: recovery, repeated on fresh copies of the same state.
	var setups []float64
	var srv *server.Server
	for i := 0; i < nodeSetupReps; i++ {
		st, err := copyState(pristine, filepath.Join(e.work, fmt.Sprintf("rep%d", i)))
		if err != nil {
			return nil, err
		}
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		srv, err = server.Recover(c.h, opt, server.Config{Seed: derive(e.seed, 21)}, nodeDurability(st))
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.Close()
	rep.e2e["setup_s"] = median(setups)

	var h http.Handler = srv
	if e.trace {
		h = e.tr.tracedHandler("server", srv)
	}
	base, stop, err := listen(h)
	if err != nil {
		return nil, err
	}
	defer stop()
	admin := newClient(1, nil)
	defer admin.CloseIdleConnections()
	if n, err := nodeObjects(admin, base); err != nil || n != indexed {
		rep.mismatch("recovered node holds %d objects (err %v), want %d", n, err, indexed)
	}

	// The schedule: queries of indexed objects, each queried at most once
	// until all have been, and adds of new ones.
	order := r.Perm(indexed)
	reqs := make([]request, nOps)
	target := make([]int, nOps) // corpus index queried or added
	next := indexed
	for i := range reqs {
		if kinds[i] {
			target[i] = next
			next++
			reqs[i] = request{kind: "add", path: "/objects", body: mustJSON(map[string]any{"tokens": c.objects[target[i]]})}
		} else {
			target[i] = order[(i-i/nodeAddEvery)%indexed]
			reqs[i] = request{kind: "query", path: "/query", body: mustJSON(map[string]any{"tokens": c.objects[target[i]]})}
		}
	}
	if e.saturate {
		done, lat := closedLoop(base, reqs, e.nproc, time.Duration(e.seconds*float64(time.Second)))
		rep.attempted = int64(done)
		rep.layer["saturation_ops_per_s"] = float64(done) / e.seconds
		rep.layer["saturation_p50_ms"] = median(lat)
		rep.layer["saturation_p99_ms"] = quantile(lat, 0.99)
		return rep, nil
	}
	gen := newOpenLoop(base, nodeRate, e.nproc, e.tr)
	cpu0 := cpuTime()
	t0 := time.Now()
	outs := gen.run(reqs)
	cpu := cpuTime() - cpu0
	rep.e2e["peak_heap_mb"] = e.heap.peakMB(secondWindows(t0, time.Now()))
	rep.attempted = int64(nOps)

	// Judge every answer. node ids are insertion order: the recovered
	// objects are corpus indices 0..indexed-1, and adds name their id.
	corpusOf := map[int]int{}
	for i := 0; i < indexed; i++ {
		corpusOf[i] = i
	}
	var found [][2]int
	acked := 0
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			rep.failed++
			continue
		}
		if kinds[i] {
			var a struct {
				ID    int `json:"id"`
				Pairs []struct {
					X, Y int
					Sim  float64
				} `json:"pairs"`
			}
			if err := json.Unmarshal(o.body, &a); err != nil {
				rep.mismatch("add %d: %v", i, err)
				continue
			}
			acked++
			corpusOf[a.ID] = target[i]
			for _, p := range a.Pairs {
				if p.X < indexed && p.Y == a.ID {
					found = append(found, [2]int{p.X, target[i]})
				}
			}
			continue
		}
		matches, err := decodeMatches(o.body)
		if err != nil {
			rep.mismatch("query %d: %v", i, err)
			continue
		}
		self := false
		for _, m := range matches {
			if m.idx == target[i] {
				self = true
			} else if m.idx < indexed {
				found = append(found, [2]int{target[i], m.idx})
			}
		}
		if !self {
			rep.mismatch("query %d for indexed object %d did not return it", i, target[i])
		}
	}
	asked, added := map[int]bool{}, map[int]bool{}
	for i, t := range target {
		if outs[i].err == nil && outs[i].status == http.StatusOK {
			if kinds[i] {
				added[t] = true
			} else {
				asked[t] = true
			}
		}
	}
	// Truth the answers could have found: duplicates of queried objects
	// among the recovered ones, and of added objects among the recovered.
	rep.e2e["f1"] = f1Within(found, c.truth, func(p [2]int) bool {
		return p[0] < indexed && (p[1] < indexed && (asked[p[0]] || asked[p[1]]) || added[p[1]])
	})
	lat := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && o.status == http.StatusOK })
	rep.e2e["op_p50_ms"] = median(lat[""])
	rep.e2e["cpu_ms_per_op"] = ms(cpu) / float64(nOps)

	if n, err := nodeObjects(admin, base); err != nil || n != indexed+acked {
		rep.mismatch("node holds %d objects after the run (err %v), want %d recovered + %d acknowledged adds", n, err, indexed, acked)
	}
	checkNodeScans(admin, base, c, opt, corpusOf, r, rep)

	if e.trace {
		rep.layer["query_p50_ms"] = median(lat["query"])
		rep.layer["query_p99_ms"] = quantile(lat["query"], 0.99)
		rep.layer["add_p50_ms"] = median(lat["add"])
		rep.layer["add_p99_ms"] = quantile(lat["add"], 0.99)
		rep.layer["gen.late_max_ms"] = ms(gen.lateMax)
		if err := nodeLayers(e, rep, c, opt, pristine, reqs, kinds, target, outs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func nodeDurability(st nodeState) server.Durability {
	return server.Durability{WALDir: st.walDir, SnapshotDir: st.snapDir, Keep: 3, Policy: wal.SyncAlways}
}

// buildNodeState writes the state a node crashed with: a snapshot
// generation covering the first nodeSnapshot objects and a WAL whose
// covered records were compacted away, leaving a tail of nodeTail adds.
// The engine indexes through its replay path (no probing), which is how
// recovery itself rebuilds it.
func buildNodeState(dir string, c *corpus, opt core.Options) (nodeState, error) {
	st := nodeState{walDir: filepath.Join(dir, "wal"), snapDir: filepath.Join(dir, "snap")}
	ix, err := core.NewIndexer(c.h, opt)
	if err != nil {
		return st, err
	}
	w, err := wal.Open(nil, st.walDir, wal.Options{Policy: wal.SyncNone}, nil)
	if err != nil {
		return st, err
	}
	for i := 0; i < nodeSnapshot; i++ {
		seq, err := w.Append(c.objects[i])
		if err != nil {
			return st, err
		}
		if err := ix.ApplyLogged(seq, c.objects[i]); err != nil {
			return st, err
		}
	}
	gens := &serverutil.GenStore{Dir: st.snapDir, Keep: 3}
	if _, err := gens.Save(ix.WriteSnapshot); err != nil {
		return st, err
	}
	if err := w.Compact(nodeSnapshot); err != nil {
		return st, err
	}
	for i := nodeSnapshot; i < nodeSnapshot+nodeTail; i++ {
		if _, err := w.Append(c.objects[i]); err != nil {
			return st, err
		}
	}
	return st, w.Close()
}

// copyState copies the state's two directories into dir.
func copyState(src nodeState, dir string) (nodeState, error) {
	dst := nodeState{walDir: filepath.Join(dir, "wal"), snapDir: filepath.Join(dir, "snap")}
	for _, p := range [][2]string{{src.walDir, dst.walDir}, {src.snapDir, dst.snapDir}} {
		if err := copyDir(p[0], p[1]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// nodeObjects reads the node's object count from /stats.
func nodeObjects(c *http.Client, base string) (int, error) {
	var st struct {
		Objects int `json:"objects"`
	}
	err := getJSON(c, base+"/stats", &st)
	return st.Objects, err
}

// decodeMatches parses a /query answer.
func decodeMatches(body []byte) ([]match, error) {
	var q struct {
		Matches []struct {
			Index int     `json:"index"`
			Sim   float64 `json:"sim"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, err
	}
	out := make([]match, len(q.Matches))
	for i, m := range q.Matches {
		out[i] = match{m.Index, m.Sim}
	}
	return out, nil
}

// checkNodeScans answers a seeded sample of queries both through the
// node and by a brute-force one-pair similarity scan over the node's
// whole final corpus, and requires the same answers.
func checkNodeScans(c *http.Client, base string, cp *corpus, opt core.Options, corpusOf map[int]int, r *rng.RNG, rep *report) {
	o := newOracle(cp.h, opt)
	all := make([][]string, len(corpusOf))
	prepped := make([][]elem.ID, len(corpusOf))
	for id := range all {
		i, ok := corpusOf[id]
		if !ok {
			rep.mismatch("node id %d has no known object", id)
			return
		}
		all[id], prepped[id] = cp.objects[i], o.prep(cp.objects[i])
	}
	o.check(all, r, rep)
	for _, q := range sample(r, len(all), nodeCheckScans) {
		out := postJSON(c, base+"/query", map[string]any{"tokens": all[q]})
		if out.err != nil || out.status != http.StatusOK {
			rep.mismatch("check query: status %d, %v", out.status, out.err)
			continue
		}
		got, err := decodeMatches(out.body)
		if err != nil {
			rep.mismatch("check query: %v", err)
			continue
		}
		var want []match
		for id := range prepped {
			if s := o.sim(prepped[q], prepped[id]); s >= opt.Tau-1e-9 {
				want = append(want, match{id, s})
			}
		}
		if !sameMatches(got, want) {
			rep.mismatch("query for node object %d: node answered %d matches, brute-force scan %d", q, len(got), len(want))
		}
	}
}

// nodeLayers measures the node's layers from outside: handler and HTTP
// self times from the spans, the engine's online phases on an Indexer
// recovered from the same files replaying the run's first operations,
// recovery's two phases, and the WAL under the node's flush policy.
func nodeLayers(e *env, rep *report, c *corpus, opt core.Options, pristine nodeState, reqs []request, kinds []bool, target []int, outs []outcome) error {
	spans := e.tr.snapshot()
	rep.layer["server.query_handler_ms"] = median(durationsMs(byName(spans, "server/query")))
	rep.layer["server.add_handler_ms"] = median(durationsMs(byName(spans, "server/objects")))
	self := selfTimes(spans)
	var qs []float64
	for _, d := range self["client/query"] {
		qs = append(qs, ms(d))
	}
	rep.layer["http.query_self_ms"] = median(qs)
	tq := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && o.traced })
	pq := latencies(reqs, outs, func(o outcome) bool { return o.err == nil && !o.traced })
	if p := median(pq["query"]); p > 0 {
		rep.layer["trace.overhead_ratio"] = median(tq["query"]) / p
	}

	st, err := copyState(pristine, filepath.Join(e.work, "replay"))
	if err != nil {
		return err
	}
	var ix *core.Indexer
	t0 := time.Now()
	gens := &serverutil.GenStore{Dir: st.snapDir, Keep: 3}
	if _, err := gens.Load(func(r io.Reader) error {
		var lerr error
		ix, _, lerr = core.LoadIndexerMeta(c.h, opt, r)
		return lerr
	}); err != nil {
		return err
	}
	t1 := time.Now()
	w, err := wal.Open(nil, st.walDir, wal.Options{Policy: wal.SyncAlways}, func(seq uint64, op wal.Op, tokens []string) error {
		if seq <= ix.WALSeq() {
			return nil
		}
		if op == wal.OpSeal {
			return ix.ApplySealLogged(seq)
		}
		return ix.ApplyLogged(seq, tokens)
	})
	if err != nil {
		return err
	}
	t2 := time.Now()
	e.tr.record("recover.snapshot_load", e.tr.newID(), 0, 0, t0, t1)
	e.tr.record("recover.wal_replay", e.tr.newID(), 0, 0, t1, t2)
	rep.layer["recover.snapshot_load_s"] = t1.Sub(t0).Seconds()
	rep.layer["recover.wal_replay_s"] = t2.Sub(t1).Seconds()
	if err := w.Close(); err != nil {
		return err
	}

	var prep, run, add, addCands []float64
	ctx := context.Background()
	for i := 0; i < len(reqs) && i < nodeReplayOps; i++ {
		tokens := c.objects[target[i]]
		if kinds[i] {
			before := ix.Stats().Candidates
			a := time.Now()
			if _, _, err := ix.AddCtx(ctx, tokens); err != nil {
				return err
			}
			add = append(add, ms(time.Since(a)))
			addCands = append(addCands, float64(ix.Stats().Candidates-before))
			continue
		}
		a := time.Now()
		q, err := ix.PrepareQuery(tokens)
		if err != nil {
			return err
		}
		b := time.Now()
		if _, err := ix.RunQuery(ctx, q); err != nil {
			return err
		}
		prep = append(prep, ms(b.Sub(a)))
		run = append(run, ms(time.Since(b)))
	}
	rep.layer["core.prepare_query_ms"] = median(prep)
	rep.layer["core.run_query_ms"] = median(run)
	rep.layer["core.add_ms"] = median(add)
	rep.layer["core.add_candidates"] = median(addCands)
	seg := ix.SegmentStats()
	rep.layer["core.segments"] = float64(seg.Segments)
	rep.layer["core.seal_total"] = float64(seg.SealTotal)
	rep.layer["core.merge_total"] = float64(seg.MergeTotal)

	wdir := filepath.Join(e.work, "walprobe")
	pw, err := wal.Open(nil, wdir, wal.Options{Policy: wal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	var appends, syncs []float64
	for i := 0; i < nodeWALProbes; i++ {
		a := time.Now()
		seq, err := pw.Append(c.objects[i%len(c.objects)])
		if err != nil {
			return err
		}
		b := time.Now()
		if err := pw.Sync(seq); err != nil {
			return err
		}
		appends = append(appends, float64(b.Sub(a))/float64(time.Microsecond))
		syncs = append(syncs, ms(time.Since(b)))
	}
	rep.layer["wal.append_us"] = median(appends)
	rep.layer["wal.sync_ms"] = median(syncs)
	return pw.Close()
}
