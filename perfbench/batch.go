package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"kjoin/internal/core"
	"kjoin/internal/rng"
)

// Batch workload shape. batch-poi joins POI-shaped objects at the
// paper's efficiency thresholds; batch-pub-plus is the paper's K-Join+
// quality setting on the Pub corpus (Table 4).
const (
	poiObjects        = 20000
	poiDelta, poiTau  = 0.8, 0.85
	pubDelta, pubTau  = 0.5, 0.6
	batchSetupReps    = 51  // set-up is repeated and its median reported
	batchCheckObjects = 150 // seeds of the filtered-vs-unfiltered sample
)

func runBatchPOI(e *env) (*report, error) {
	return runBatch(e, poiCorpus(e.seed, poiObjects), func(l *loaded) core.Options {
		opt := core.Defaults(poiDelta, poiTau)
		opt.Workers = e.nproc
		return opt
	})
}

func runBatchPubPlus(e *env) (*report, error) {
	return runBatch(e, pubCorpus(e.seed), func(l *loaded) core.Options {
		opt := core.Defaults(pubDelta, pubTau)
		opt.Workers = e.nproc
		opt.Plus = true
		opt.Synonyms = l.synonyms
		return opt
	})
}

// runBatch times repeated full self-joins of the corpus. Set-up is
// reading the corpus files; every join must return the first join's
// pairs, and the first join's pairs are checked pair by pair.
func runBatch(e *env, c *corpus, options func(*loaded) core.Options) (*report, error) {
	rep := newReport()
	f, err := writeFiles(e.work, c)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var l *loaded
	for i := 0; i < batchSetupReps; i++ {
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		if l, err = readFiles(f); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)
	if len(l.objects) != len(c.objects) {
		rep.mismatch("read %d objects back, wrote %d", len(l.objects), len(c.objects))
	}
	opt := options(l)

	var first []core.Pair
	var plain, traced []float64
	var windows []window
	var last *core.Stats
	cpu0 := cpuTime()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		pairs, st, err := core.SelfJoin(l.h, l.objects, opt)
		t1 := time.Now()
		windows = append(windows, window{t0, t1})
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.mismatch("join %d: %v", i, err)
			continue
		}
		if first == nil {
			first = pairs
		} else if !samePairs(first, pairs) {
			rep.mismatch("join %d returned %d pairs, differing from the first join's %d", i, len(pairs), len(first))
		}
		last = st
		// In a traced run every other join records spans, so the two
		// halves give the tracing overhead.
		if e.trace && i%2 == 1 {
			traceJoin(e.tr, t0, t1, st)
			traced = append(traced, t1.Sub(t0).Seconds())
		} else {
			plain = append(plain, t1.Sub(t0).Seconds())
		}
	}
	cpu := cpuTime() - cpu0
	rep.e2e["peak_heap_mb"] = e.heap.peakMB(windows)
	all := append(append([]float64(nil), plain...), traced...)
	rep.e2e["op_p50_ms"] = median(all) * 1000
	rep.e2e["cpu_ms_per_op"] = ms(cpu) / float64(rep.attempted)

	found := make([][2]int, len(first))
	for i, p := range first {
		found[i] = [2]int{p.X, p.Y}
	}
	rep.e2e["f1"] = f1(found, c.truth)
	checkSampleJoin(l, c, opt, rng.New(derive(e.seed, 10)), rep)
	for _, p := range first {
		s, err := core.Similarity(l.h, l.objects[p.X], l.objects[p.Y], opt)
		if err != nil || s < opt.Tau-1e-9 || math.Abs(s-p.Sim) > 1e-9 {
			rep.mismatch("pair (%d,%d) reported sim %v, one-pair Similarity %v (err %v), tau %v", p.X, p.Y, p.Sim, s, err, opt.Tau)
		}
	}
	if len(first) == 0 {
		rep.mismatch("the join found no pairs")
	}

	if e.trace && last != nil {
		rep.layer["join_s"] = median(all)
		batchLayers(e, rep, l, opt, last)
		if len(traced) > 0 && len(plain) > 0 {
			rep.layer["trace.overhead_ratio"] = median(traced) / median(plain)
		}
	}
	return rep, nil
}

// traceJoin records one join as a root span with its three phases as
// children, laid end to end from the join's own Stats.
func traceJoin(t *tracer, start, end time.Time, st *core.Stats) {
	req := t.newID()
	root := t.newID()
	t.record("batch.join", root, 0, req, start, end)
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"core.preprocess", st.Preprocess}, {"core.build_index", st.BuildIndex}, {"core.probe", st.Probe}} {
		t.record(ph.name, t.newID(), root, req, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// batchLayers fills the batch per-layer metrics: phase timings as the
// median over the traced joins' spans, counters from the last join
// (they are identical for every join), and the element resolution
// time measured by resolving the collection's distinct tokens.
func batchLayers(e *env, rep *report, l *loaded, opt core.Options, st *core.Stats) {
	spans := e.tr.snapshot()
	secs := func(name string) float64 { return median(durationsMs(byName(spans, name))) / 1000 }
	rep.layer["core.preprocess_s"] = secs("core.preprocess")
	rep.layer["core.build_index_s"] = secs("core.build_index")
	rep.layer["core.probe_s"] = secs("core.probe")
	rep.layer["verify.cpu_s"] = st.VerifyTime.Seconds()
	rep.layer["index.candidates"] = float64(st.Candidates)
	rep.layer["sig.entries"] = float64(st.SigEntries)
	rep.layer["sig.avg_prefix"] = st.AvgPrefix
	rep.layer["verify.count_pruned"] = float64(st.Verify.CountPruned)
	rep.layer["verify.weighted_pruned"] = float64(st.Verify.WeightedPruned)
	rep.layer["verify.lb_accepted"] = float64(st.Verify.LBAccepted)
	rep.layer["verify.ub_rejected"] = float64(st.Verify.UBRejected)
	rep.layer["matching.calls"] = float64(st.Verify.MatchingCalls)
	if st.Candidates > 0 {
		rep.layer["verify.useful_ratio"] = float64(st.Verify.Results) / float64(st.Candidates)
	}

	// Resolution the way the join does it: intern every token, then
	// resolve in parallel, with the join's resolver options.
	var resolves []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		o := newOracle(l.h, opt) // builds elem.NewResolver with the join's options
		for _, obj := range l.objects {
			for _, t := range obj {
				o.res.ID(t)
			}
		}
		o.res.ResolveAll(opt.Workers)
		t1 := time.Now()
		e.tr.record("elem.resolve", e.tr.newID(), 0, e.tr.newID(), t0, t1)
		resolves = append(resolves, t1.Sub(t0).Seconds())
	}
	rep.layer["elem.resolve_s"] = median(resolves)
}

// checkSampleJoin joins a seeded sample — seed objects plus their
// planted duplicates, so the sample holds similar pairs — with filters
// and without, and requires identical answers.
func checkSampleJoin(l *loaded, c *corpus, opt core.Options, r *rng.RNG, rep *report) {
	partners := map[int][]int{}
	for p := range c.truth {
		partners[p[0]] = append(partners[p[0]], p[1])
		partners[p[1]] = append(partners[p[1]], p[0])
	}
	in := map[int]bool{}
	for _, i := range sample(r, len(l.objects), batchCheckObjects) {
		in[i] = true
		for _, j := range partners[i] {
			in[j] = true
		}
	}
	idx := make([]int, 0, len(in))
	for i := range in {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	objs := make([][]string, len(idx))
	for k, i := range idx {
		objs[k] = l.objects[i]
	}
	filtered, _, err := core.SelfJoin(l.h, objs, opt)
	if err != nil {
		rep.mismatch("sample join: %v", err)
		return
	}
	naive, err := core.NaiveSelfJoin(l.h, objs, opt)
	if err != nil {
		rep.mismatch("sample naive join: %v", err)
		return
	}
	if !samePairs(filtered, naive) {
		rep.mismatch("sample of %d objects: filtered join found %d pairs, unfiltered %d", len(objs), len(filtered), len(naive))
	}
	if len(naive) == 0 {
		rep.mismatch("sample of %d objects holds no similar pair; the check would prove nothing", len(objs))
	}
}

// samePairs compares two join answers: same pairs, same order,
// similarities equal to 1e-9.
func samePairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y || math.Abs(a[i].Sim-b[i].Sim) > 1e-9 {
			return false
		}
	}
	return true
}

// runSweep prints a one-off batch-poi scale sweep: candidates, results
// and join time at each size, and at sizes up to 10k the candidates
// the online Indexer generates adding the same objects one at a time.
func runSweep(sizes string, seed uint64) error {
	fmt.Println("objects\tcandidates\tresults\tjoin_s\tonline_candidates\tonline/batch")
	for _, s := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return fmt.Errorf("bad sweep size %q", s)
		}
		c := poiCorpus(seed, n)
		opt := core.Defaults(poiDelta, poiTau)
		t0 := time.Now()
		pairs, st, err := core.SelfJoin(c.h, c.objects, opt)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		online, ratio := "-", "-"
		if n <= 10000 {
			ix, err := core.NewIndexer(c.h, opt)
			if err != nil {
				return err
			}
			for _, o := range c.objects {
				if _, err := ix.Add(o); err != nil {
					return err
				}
			}
			oc := ix.Stats().Candidates
			online = strconv.FormatInt(oc, 10)
			ratio = strconv.FormatFloat(float64(oc)/float64(st.Candidates), 'f', 2, 64)
		}
		fmt.Printf("%d\t%d\t%d\t%.3f\t%s\t%s\n", n, st.Candidates, len(pairs), wall, online, ratio)
	}
	return nil
}
