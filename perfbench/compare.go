package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (map[string]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := map[string]metricSpec{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// readRecords collects the record lines of saved benchmark outputs, in
// file order. Other lines are ignored, so a file may simply be the
// concatenated standard output of several runs.
func readRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var rec struct{ Record report }
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark records", path)
	}
	return out, nil
}

// minPairs is the number of base/head pairs below which no gain or loss
// is claimed.
const minPairs = 10

// verdict classifies head against base for one metric:
//   - "unresolved" when there are fewer than ten pairs;
//   - "better" or "worse" when the winning side wins at least nine tenths
//     of the pairs (ties count for neither) and the medians differ by
//     more than the base's interquartile range;
//   - otherwise "worse" when head's median is worse than base's by more
//     than the metric's bound;
//   - otherwise "unresolved" when either side's spread is wider than the
//     bound, unless every head run reads better than every base run;
//   - otherwise "~", no change beyond the noise.
//
// A metric without a bound (per-layer) is "~" unless the pair rule
// decides it.
func verdict(base, head []float64, better string, bound *float64) (string, float64) {
	sign := 1.0 // positive when head is better
	if better == "lower" {
		sign = -1
	}
	n := min(len(base), len(head))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	winFrac := float64(wins) / float64(n)
	if sameValues(base, head) {
		return "~", winFrac
	}
	if n < minPairs {
		return "unresolved", winFrac
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	separated := math.Abs(mh-mb) > q3-q1
	if separated && float64(wins) >= 0.9*float64(n) {
		return "better", winFrac
	}
	if separated && float64(losses) >= 0.9*float64(n) {
		return "worse", winFrac
	}
	if bound == nil {
		return "~", winFrac
	}
	if mb != 0 && sign*(mb-mh)/math.Abs(mb) > *bound {
		return "worse", winFrac
	}
	if (relSpread(base) > *bound || relSpread(head) > *bound) && !allBetter(base, head, sign) {
		return "unresolved", winFrac
	}
	return "~", winFrac
}

// allBetter reports whether every head value reads better than every
// base value; sign is positive when higher is better.
func allBetter(base, head []float64, sign float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// sameValues reports whether both sides hold one and the same value, as
// a modeled count does when a change leaves it alone.
func sameValues(a, b []float64) bool {
	for _, xs := range [][]float64{a, b} {
		for _, x := range xs {
			if x != a[0] {
				return false
			}
		}
	}
	return true
}

func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles, head's pair-win fraction and the verdict. Records pair up in
// file order, so alternate the base and head runs when making them.
func compareFiles(w io.Writer, basePath, headPath, specPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	for _, warn := range stampMismatches(base, head) {
		fmt.Fprintln(w, "WARNING:", warn)
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []report) map[key][]report {
		out := map[key][]report{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			out[k] = append(out[k], r)
		}
		return out
	}
	bg, hg := group(base), group(head)
	var keys []key
	for k := range bg {
		if _, ok := hg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace
	})
	for _, k := range keys {
		b, h := bg[k], hg[k]
		fmt.Fprintf(w, "\n%s (trace=%v): base %d runs, head %d runs\n", k.workload, k.trace, len(b), len(h))
		fmt.Fprintf(w, "  %-34s %-10s %14s %14s %14s %14s %14s %14s %6s  %s\n",
			"metric", "unit", "base_q1", "base_median", "base_q3", "head_q1", "head_median", "head_q3", "wins", "verdict")
		for _, name := range metricNames(b, h) {
			bv, hv := values(b, name), values(h, name)
			ms := spec[name]
			if ms.Better == "" {
				ms.Better = "lower"
			}
			v, win := verdict(bv, hv, ms.Better, ms.Bound)
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(w, "  %-34s %-10s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %6.2f  %s\n",
				name, b[0].Metrics[name].Unit, bq1, median(bv), bq3, hq1, median(hv), hq3, win, v)
		}
	}
	return nil
}

// metricNames lists the metrics every record on both sides reports.
func metricNames(b, h []report) []string {
	var names []string
	for name := range b[0].Metrics {
		all := true
		for _, r := range append(append([]report(nil), b...), h...) {
			if _, ok := r.Metrics[name]; !ok {
				all = false
				break
			}
		}
		if all {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func values(rs []report, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// stampMismatches lists the host fields on which the records disagree:
// results from different hosts or toolchains do not compare.
func stampMismatches(base, head []report) []string {
	var out []string
	ref := base[0].Env.hostFields()
	for _, side := range []struct {
		name string
		rs   []report
	}{{"base", base}, {"head", head}} {
		for i, r := range side.rs {
			for f, v := range r.Env.hostFields() {
				if v != ref[f] {
					out = append(out, fmt.Sprintf("%s record %d (%s) has %s %q, base record 0 has %q",
						side.name, i, r.Workload, f, v, ref[f]))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
