package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"kjoin/internal/core"
	"kjoin/internal/dataset"
	"kjoin/internal/elem"
	"kjoin/internal/eval"
	"kjoin/internal/hierarchy"
	"kjoin/internal/rng"
	"kjoin/internal/sig"
	"kjoin/internal/synonym"
	"kjoin/internal/verify"
)

// corpus is one generated input set: the hierarchy, the objects, the
// generator's planted duplicate truth (index pairs, X < Y) and, for
// K-Join+, the knowledge base's alias rules.
type corpus struct {
	h       *hierarchy.Hierarchy
	objects [][]string
	truth   map[[2]int]bool
	aliases *synonym.Dict
}

// derive gives each generator its own stream of the workload seed.
func derive(seed, stream uint64) uint64 {
	return rng.New(seed*0x9e3779b97f4a7c15 + stream).Uint64()
}

// poiCorpus generates n POI-shaped objects (paper Table 3), drawn from
// the seed, over the fixed Table 2-shaped knowledge hierarchy: one
// knowledge base, many object collections, as in the paper's setting.
// Varying the hierarchy too would swamp run-to-run comparisons with
// the cost differences between unrelated knowledge bases.
func poiCorpus(seed uint64, n int) *corpus {
	hr := dataset.GenHierarchy(dataset.DefaultHierarchy())
	rc := dataset.POIConfig(n)
	rc.Seed = derive(seed, 2)
	c := dataset.GenRecords(hr, rc)
	return &corpus{h: hr.H, objects: c.Records, truth: c.Truth}
}

// pubCorpus generates the Pub corpus (paper Table 4) from the seed.
func pubCorpus(seed uint64) *corpus {
	pc := dataset.DefaultPub()
	pc.Seed = derive(seed, 3)
	l := dataset.GenPub(pc)
	return &corpus{h: l.H, objects: l.Records, truth: l.Truth, aliases: l.Aliases}
}

// files are a corpus written in the command-line tools' text formats.
type files struct{ hierarchy, objects, synonyms string }

// writeFiles writes the corpus the way kjoin-gen does: the hierarchy in
// the kjoin text format, one object per line, one alias group per line.
func writeFiles(dir string, c *corpus) (files, error) {
	f := files{
		hierarchy: filepath.Join(dir, "hierarchy.txt"),
		objects:   filepath.Join(dir, "records.txt"),
	}
	if err := writeFile(f.hierarchy, func(w *bufio.Writer) error {
		_, err := c.h.WriteTo(w)
		return err
	}); err != nil {
		return f, err
	}
	if err := writeFile(f.objects, func(w *bufio.Writer) error {
		for _, o := range c.objects {
			if _, err := fmt.Fprintln(w, strings.Join(o, " ")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return f, err
	}
	if c.aliases != nil {
		f.synonyms = filepath.Join(dir, "synonyms.txt")
		if err := writeFile(f.synonyms, func(w *bufio.Writer) error {
			for _, g := range c.aliases.Groups() {
				if _, err := fmt.Fprintln(w, strings.Join(g, ",")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return f, err
		}
	}
	return f, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		_ = f.Close() // the fill error is the one to report
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// loaded is a corpus read back from its files.
type loaded struct {
	h        *hierarchy.Hierarchy
	objects  [][]string
	synonyms *synonym.Dict
}

// readFiles reads the files back: the hierarchy through the program's
// reader (hierarchy.Read), objects and alias rules line by line exactly
// as cmd/kjoin reads -input and -synonyms.
func readFiles(f files) (*loaded, error) {
	hf, err := os.Open(f.hierarchy)
	if err != nil {
		return nil, err
	}
	h, err := hierarchy.Read(bufio.NewReader(hf))
	_ = hf.Close() // read-only
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", f.hierarchy, err)
	}
	out := &loaded{h: h}
	if err := scanLines(f.objects, func(line string) {
		out.objects = append(out.objects, strings.Fields(line))
	}); err != nil {
		return nil, err
	}
	if f.synonyms != "" {
		out.synonyms = synonym.New()
		if err := scanLines(f.synonyms, func(line string) {
			var group []string
			for _, t := range strings.Split(line, ",") {
				if t = strings.TrimSpace(t); t != "" {
					group = append(group, t)
				}
			}
			if len(group) > 1 {
				out.synonyms.Add(group...)
			}
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func scanLines(path string, each func(string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		each(sc.Text())
	}
	return sc.Err()
}

// f1 is the F-measure of found pairs against truth.
func f1(found [][2]int, truth map[[2]int]bool) float64 {
	return eval.Measure(found, truth).F1()
}

// f1Within is the F-measure of found pairs against the truth pairs
// that keep admits: the part of the truth a workload's answers could
// have found.
func f1Within(found [][2]int, truth map[[2]int]bool, keep func([2]int) bool) float64 {
	part := map[[2]int]bool{}
	for p := range truth {
		if keep(p) {
			part[p] = true
		}
	}
	return f1(found, part)
}

// oracle computes exact one-pair similarities with no filtering, for
// brute-force scans over a whole corpus. It builds the same element
// resolver, signature space and verification context that
// core.Similarity builds per call, once, so a scan costs one matching
// per pair instead of one hierarchy index per pair; check pins it to
// core.Similarity.
type oracle struct {
	h   *hierarchy.Hierarchy
	opt core.Options
	res *elem.Resolver
	sp  *sig.Space
	ctx *verify.Context
}

func newOracle(h *hierarchy.Hierarchy, opt core.Options) *oracle {
	phiMin := opt.PhiMin
	if phiMin == 0 {
		phiMin = math.Max(opt.Delta, 0.8)
	}
	maxMap := opt.MaxMappings
	if maxMap == 0 {
		maxMap = 4
	}
	res := elem.NewResolver(h, elem.Options{Plus: opt.Plus, PhiMin: phiMin, MaxMappings: maxMap, Synonyms: opt.Synonyms})
	sp := sig.NewSpace(res, opt.Metric, opt.Delta, opt.Scheme)
	return &oracle{h: h, opt: opt, res: res, sp: sp, ctx: &verify.Context{
		Res: res, Space: sp, Metric: opt.Metric, Set: opt.Set, Delta: opt.Delta, Tau: opt.Tau,
	}}
}

// prep interns an object's distinct elements.
func (o *oracle) prep(tokens []string) []elem.ID {
	seen := map[elem.ID]bool{}
	var out []elem.ID
	for _, t := range tokens {
		id := o.res.ID(t)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
			o.sp.GroupKeys(id)
		}
	}
	return out
}

func (o *oracle) sim(x, y []elem.ID) float64 { return o.ctx.Similarity(x, y) }

// check compares the oracle with core.Similarity on a few pairs.
func (o *oracle) check(objs [][]string, r *rng.RNG, rep *report) {
	for i := 0; i < 20 && len(objs) > 1; i++ {
		x, y := objs[r.Intn(len(objs))], objs[r.Intn(len(objs))]
		want, err := core.Similarity(o.h, x, y, o.opt)
		if err != nil {
			rep.mismatch("core.Similarity: %v", err)
			return
		}
		if got := o.sim(o.prep(x), o.prep(y)); math.Abs(got-want) > 1e-9 {
			rep.mismatch("brute-force oracle disagrees with core.Similarity: %v vs %v", got, want)
		}
	}
}

// match is one (object index, similarity) answer.
type match struct {
	idx int
	sim float64
}

// sameMatches reports whether two answers hold the same indices with
// the same similarities (to 1e-9), in any order.
func sameMatches(a, b []match) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]float64, len(a))
	for _, x := range a {
		m[x.idx] = x.sim
	}
	for _, y := range b {
		s, ok := m[y.idx]
		if !ok || math.Abs(s-y.sim) > 1e-9 {
			return false
		}
	}
	return true
}

// sample returns k distinct indices from [0, n).
func sample(r *rng.RNG, n, k int) []int {
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}
