package main

import (
	"repro/internal/codecs"
)

// layerMetrics are the per-layer metrics of a traced run. Host times are
// medians over the traced passes (set-up times over the set-ups);
// modeled counts come from the pass outputs, which every pass repeats.
func layerMetrics(setup []spanTotals, ps []passStat, m *modeled) map[string]metric {
	traced := func(f func(spanTotals) float64) float64 {
		return median(passValues(ps, true, func(p passStat) float64 { return f(p.spans) }))
	}
	secs := func(name string) float64 {
		return traced(func(st spanTotals) float64 { return st.get(name).total.Seconds() })
	}
	setupSecs := func(name string) float64 {
		var xs []float64
		for _, st := range setup {
			xs = append(xs, st.get(name).total.Seconds())
		}
		return median(xs)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	count := func(v float64) metric { return metric{v, "count"} }
	accelNames := []string{"accel.serial", "accel.overlap", "accel.tile"}
	sumAccel := func(f func(spanTotal) float64) float64 {
		return traced(func(st spanTotals) float64 {
			var s float64
			for _, n := range accelNames {
				s += f(st.get(n))
			}
			return s
		})
	}

	compressS := secs("core.compress")
	accuracyS := secs("train.accuracy")
	e := m.Energy
	out := map[string]metric{
		"models.build_s":            {setupSecs("models.build"), "s"},
		"train.fit_s":               {setupSecs("train.fit"), "s"},
		"models.selected_weights_s": {secs("models.selected_weights"), "s"},

		"core.compress_s":              {compressS, "s"},
		"core.compress_mweights_per_s": {ratio(float64(m.Weights)/1e6, compressS), "Mweights/s"},
		"core.segments":                count(float64(m.Segments)),

		"train.accuracy_s":     {accuracyS, "s"},
		"train.accuracy_calls": count(traced(func(st spanTotals) float64 { return float64(st.get("train.accuracy").calls) })),
		"train.samples_per_s":  {ratio(float64(m.AccuracySamples), accuracyS), "1/s"},
		"train.alloc_mb":       {traced(func(st spanTotals) float64 { return float64(st.get("train.accuracy").alloc) / 1e6 }), "MB"},

		"planner.greedy_s":          {secs("planner.greedy"), "s"},
		"planner.greedy_self_s":     {traced(func(st spanTotals) float64 { return st.get("planner.greedy").self.Seconds() }), "s"},
		"planner.evals":             count(float64(m.Evals)),
		"planner.tiles_s":           {secs("planner.tiles"), "s"},
		"planner.tile_rounds_added": count(float64(m.TileRoundsAdded)),

		"accel.host_ns_per_flit": {ratio(sumAccel(func(s spanTotal) float64 { return float64(s.total.Nanoseconds()) }), float64(m.Traffic.NoCFlits)), "ns/flit"},
		"accel.alloc_mb":         {sumAccel(func(s spanTotal) float64 { return float64(s.alloc) / 1e6 }), "MB"},

		"accel.cycles.memory":             {float64(m.Latency.Memory), "cycles"},
		"accel.cycles.communication":      {float64(m.Latency.Communication), "cycles"},
		"accel.cycles.computation":        {float64(m.Latency.Computation), "cycles"},
		"accel.cycles.decode_stall":       {float64(m.Latency.DecodeStall), "cycles"},
		"accel.dram_read_words":           {float64(m.Traffic.DRAMReadWords), "words"},
		"accel.dram_write_words":          {float64(m.Traffic.DRAMWriteWords), "words"},
		"accel.energy_uj.comm":            {(e.CommDyn + e.CommLeak) / 1e6, "uJ"},
		"accel.energy_uj.comp":            {(e.CompDyn + e.CompLeak) / 1e6, "uJ"},
		"accel.energy_uj.local":           {(e.LocalDyn + e.LocalLeak) / 1e6, "uJ"},
		"accel.energy_uj.main":            {(e.MainDyn + e.MainLeak) / 1e6, "uJ"},
		"accel.rounds":                    count(float64(m.Rounds)),
		"accel.sim_rounds":                count(float64(m.SimRounds)),
		"accel.breakdown_residual_cycles": {float64(m.Residual), "cycles"},
		"noc.flits":                       count(float64(m.Traffic.NoCFlits)),
		"noc.flit_hops":                   count(float64(m.Traffic.FlitHops)),
		"noc.link_hops":                   count(float64(m.Traffic.LinkHops)),
		"trace.overhead_frac":             {overhead(ps), "fraction"},
	}
	for _, n := range accelNames {
		out[n+".host_s"] = metric{secs(n), "s"}
		out[n+".cycles"] = metric{float64(m.ScheduleCycles[n[len("accel."):]]), "cycles"}
	}
	for _, c := range codecs.All() {
		p := "codec." + c.Name()
		out[p+".compress_s"] = metric{secs(p + ".compress"), "s"}
		out[p+".decompress_s"] = metric{secs(p + ".decompress"), "s"}
		out[p+".calls"] = count(traced(func(st spanTotals) float64 {
			return float64(st.get(p+".compress").calls + st.get(p+".decompress").calls)
		}))
	}
	return out
}

// overhead is the traced passes' median wall time over the untraced
// passes' median, minus one.
func overhead(ps []passStat) float64 {
	wall := func(p passStat) float64 { return p.wall.Seconds() }
	on, off := median(passValues(ps, true, wall)), median(passValues(ps, false, wall))
	if off == 0 {
		return 0
	}
	return on/off - 1
}
