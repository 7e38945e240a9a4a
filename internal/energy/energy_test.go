package energy

import (
	"math"
	"testing"
)

func TestDefault45nmValid(t *testing.T) {
	if err := Default45nm().Validate(); err != nil {
		t.Fatalf("default parameters invalid: %v", err)
	}
}

func TestValidateCatchesBadness(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.ClockHz = 0 },
		func(p *Params) { p.FlitBits = 0 },
		func(p *Params) { p.RouterFlitPJ = -1 },
		func(p *Params) { p.LocalReadPJ = -1 },
		func(p *Params) { p.RouterLeakW = -1 },
		func(p *Params) { p.DRAMLatency = -1 },
		func(p *Params) { p.DRAMWordsPerCy = 0 },
	}
	for i, mut := range mutations {
		p := Default45nm()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestMagnitudeOrdering(t *testing.T) {
	// The orderings that drive the paper's breakdowns must hold: DRAM per
	// word >> local SRAM per word >> NoC per flit-ish >> MAC, and the
	// decompression add is cheaper than a MAC (no multiplier).
	p := Default45nm()
	if p.DRAMWordPJ < 100*p.LocalReadPJ {
		t.Errorf("DRAM %v not >> SRAM %v", p.DRAMWordPJ, p.LocalReadPJ)
	}
	if p.LocalReadPJ < p.MACPJ {
		t.Errorf("SRAM access %v not above MAC %v", p.LocalReadPJ, p.MACPJ)
	}
	if p.DecompressPJ >= p.MACPJ {
		t.Errorf("decompress %v should be cheaper than MAC %v", p.DecompressPJ, p.MACPJ)
	}
}

func TestCyclesToSecondsAndLeakage(t *testing.T) {
	p := Default45nm()
	if got := p.CyclesToSeconds(1e9); math.Abs(got-1) > 1e-12 {
		t.Errorf("1e9 cycles at 1 GHz = %v s", got)
	}
	// 1 mW over 1 us = 1 nJ = 1000 pJ.
	if got := p.LeakagePJ(1e-3, 1000); math.Abs(got-1000) > 1e-6 {
		t.Errorf("leakage = %v pJ, want 1000", got)
	}
	if got := p.LeakagePJ(0, 12345); got != 0 {
		t.Errorf("zero leakage power gave %v", got)
	}
}
