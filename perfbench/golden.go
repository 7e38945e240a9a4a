package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
)

// goldenSeed is the seed the committed results/overlap.csv was generated
// with; only runs at this seed can be held to its rows.
const goldenSeed = 2020

// goldenFile is the committed overlap sweep, relative to the repository
// root the benchmark runs from.
const goldenFile = "results/overlap.csv"

// ftoa formats a float the way cmd/benchtables writes CSV cells.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// checkGolden holds every simulated row to its row of the committed
// overlap sweep CSV: compression ratio, rounds, cycles, decode stall and
// energy, at the CSV's precision. A missing or unreadable file fails
// every row.
func checkGolden(b *bench, path string, rows []row) {
	want, err := readGolden(path)
	if err != nil {
		b.check(false, "golden rows: %v", err)
		return
	}
	for _, r := range rows {
		key := goldenKey(r.Model, ftoa(r.Delta), r.Mode)
		g, ok := want[key]
		if !ok {
			b.check(false, "golden rows: no row for %s in %s", key, path)
			continue
		}
		got := []string{ftoa(r.CR), strconv.Itoa(r.Rounds), strconv.FormatUint(r.Cycles, 10),
			strconv.FormatUint(r.DecodeStall, 10), ftoa(r.EnergyUJ)}
		b.check(fmt.Sprint(got) == fmt.Sprint(g),
			"golden row %s: got cr,rounds,cycles,decode_stall,energy_uj %v, committed %v", key, got, g)
	}
}

func goldenKey(model, delta, mode string) string { return model + "," + delta + "," + mode }

// readGolden indexes the CSV's rows by (model, delta, mode) and keeps
// the checked columns in the order checkGolden compares them.
func readGolden(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("%s has no rows", path)
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	names := []string{"model", "delta_pct", "mode", "cr", "rounds", "cycles", "decode_stall", "energy_uj"}
	for _, n := range names {
		if _, ok := col[n]; !ok {
			return nil, fmt.Errorf("%s has no %q column", path, n)
		}
	}
	out := map[string][]string{}
	for _, rec := range recs[1:] {
		key := goldenKey(rec[col["model"]], rec[col["delta_pct"]], rec[col["mode"]])
		var vals []string
		for _, n := range names[3:] {
			vals = append(vals, rec[col[n]])
		}
		out[key] = vals
	}
	return out, nil
}
