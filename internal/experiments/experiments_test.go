package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/nic"
	"repro/internal/sim"
)

// The experiment tests assert the paper's qualitative results — who
// wins, by roughly what factor, where crossovers fall — at test scale.
// Exact paper-vs-measured numbers at full scale come from
// `go run ./cmd/benchtab -full`.

func TestFreqSweep(t *testing.T) {
	r := RunFreqSweep(ScaleTest, 1)
	if r.MinLineRateFreqMoonGen != 1.5 {
		t.Errorf("MoonGen line-rate frequency = %.1f GHz, paper: 1.5", r.MinLineRateFreqMoonGen)
	}
	if r.MinLineRateFreqPktgen != 1.7 {
		t.Errorf("Pktgen line-rate frequency = %.1f GHz, paper: 1.7", r.MinLineRateFreqPktgen)
	}
	if math.Abs(r.PktgenAt15-14.12) > 0.2 {
		t.Errorf("Pktgen at 1.5 GHz = %.2f Mpps, paper: 14.12", r.PktgenAt15)
	}
}

func TestFig2Scaling(t *testing.T) {
	r := RunFig2(ScaleTest, 2)
	// Linear region: each core adds the single-core rate until the
	// 2x10GbE cap.
	single := r.Mpps[0]
	if single < 4.9 || single > 5.5 {
		t.Fatalf("single core at 1.2 GHz = %.2f Mpps, want ~5.2 (229.2 cycles/pkt)", single)
	}
	for i := 1; i < len(r.Mpps); i++ {
		expected := math.Min(float64(i+1)*single, r.LineRateLimit)
		if math.Abs(r.Mpps[i]-expected)/expected > 0.03 {
			t.Errorf("%d cores: %.2f Mpps, want ~%.2f", i+1, r.Mpps[i], expected)
		}
	}
	// The cap must actually be reached with 8 cores.
	if math.Abs(r.Mpps[7]-r.LineRateLimit)/r.LineRateLimit > 0.01 {
		t.Errorf("8 cores: %.2f Mpps, want line-rate limit %.2f", r.Mpps[7], r.LineRateLimit)
	}
}

func TestFig3XL710(t *testing.T) {
	r := RunFig3(ScaleTest, 3)
	lineRate := func(si int) float64 { return 40.0 }
	// Sizes <= 128 B never reach 40G line rate, with any core count.
	for si, size := range r.Sizes {
		if size > 128 {
			continue
		}
		for c := 0; c < 3; c++ {
			if r.WireGbps[c][si] > 0.98*lineRate(si) {
				t.Errorf("%dB %d cores reached %.1f Gbit/s, should be capped", size, c+1, r.WireGbps[c][si])
			}
		}
	}
	// Sizes >= 160 B reach line rate with >= 2 cores.
	for si, size := range r.Sizes {
		if size < 160 {
			continue
		}
		if r.WireGbps[1][si] < 0.97*40 {
			t.Errorf("%dB 2 cores only %.1f Gbit/s, want line rate", size, r.WireGbps[1][si])
		}
	}
	// A third core does not help at small sizes (hardware bottleneck).
	for si, size := range r.Sizes {
		if size > 128 {
			continue
		}
		if r.WireGbps[2][si] > r.WireGbps[1][si]*1.03 {
			t.Errorf("%dB: 3 cores (%.1f) improved over 2 (%.1f)", size, r.WireGbps[2][si], r.WireGbps[1][si])
		}
	}
}

func TestFig4Scaling120G(t *testing.T) {
	if testing.Short() {
		t.Skip("12-core soak; covered by the full suite")
	}
	r := RunFig4(ScaleTest, 4)
	// Every added core adds a full line-rate port: 14.88 Mpps each.
	for i, m := range r.Mpps {
		want := float64(i+1) * 14.88
		if math.Abs(m-want)/want > 0.01 {
			t.Errorf("%d cores = %.2f Mpps, want %.2f", i+1, m, want)
		}
	}
	// Headline: 178.5 Mpps at 120 Gbit/s with 12 cores.
	if math.Abs(r.Mpps[11]-178.5) > 1.0 {
		t.Errorf("12 cores = %.1f Mpps, paper: 178.5", r.Mpps[11])
	}
}

func TestCostEstimate(t *testing.T) {
	r := RunCostEstimate(ScaleTest, 5)
	if math.Abs(r.PredictedMpps-10.47) > 0.1 {
		t.Errorf("predicted = %.2f Mpps, paper: 10.47", r.PredictedMpps)
	}
	// Simulated rate within the prediction's uncertainty band.
	if math.Abs(r.SimulatedMpps-r.PredictedMpps) > 3*r.PredictedStd {
		t.Errorf("simulated %.2f vs predicted %.2f±%.2f", r.SimulatedMpps, r.PredictedMpps, r.PredictedStd)
	}
}

func TestSizeSweepFlat(t *testing.T) {
	r := RunSizeSweep(ScaleTest, 6)
	base := r.MppsTx[0]
	for i, m := range r.MppsTx {
		if math.Abs(m-base)/base > 0.01 {
			t.Errorf("size %dB: %.3f Mpps differs from 64B's %.3f", 64+8*i, m, base)
		}
	}
}

func TestTables1And2(t *testing.T) {
	t1 := RunTable1()
	if len(t1.Rows) != 6 {
		t.Fatalf("table 1 has %d rows", len(t1.Rows))
	}
	if t1.Rows[0].Values[0] != 76.0 {
		t.Fatal("table 1 TX cost wrong")
	}
	t2 := RunTable2()
	if len(t2.Rows) != 4 {
		t.Fatalf("table 2 has %d rows", len(t2.Rows))
	}
	// Counter column always cheaper than rand column.
	for _, row := range t2.Rows {
		if row.Values[1] >= row.Values[0] {
			t.Errorf("%s: counter %.1f not cheaper than rand %.1f", row.Label, row.Values[1], row.Values[0])
		}
	}
}

func TestTable3Fits(t *testing.T) {
	r := RunTable3(ScaleTest, 7)
	if math.Abs(r.FiberK-310.7) > 8 {
		t.Errorf("fiber k = %.1f ns, paper: 310.7", r.FiberK)
	}
	if math.Abs(r.FiberVPc-0.72) > 0.03 {
		t.Errorf("fiber vp = %.3f c, paper: 0.72", r.FiberVPc)
	}
	if math.Abs(r.CopperK-2147.2) > 10 {
		t.Errorf("copper k = %.1f ns, paper: 2147.2", r.CopperK)
	}
	if math.Abs(r.CopperVPc-0.69) > 0.03 {
		t.Errorf("copper vp = %.3f c, paper: 0.69", r.CopperVPc)
	}
	// The 8.5 m fiber measurement is bimodal on the 12.8 ns timer grid.
	if len(r.Fiber85Values) != 2 {
		t.Fatalf("8.5m fiber: %d distinct values %v, paper: exactly 2", len(r.Fiber85Values), r.Fiber85Values)
	}
	if math.Abs(r.Fiber85Values[0]-345.6) > 0.1 || math.Abs(r.Fiber85Values[1]-358.4) > 0.1 {
		t.Errorf("8.5m values = %v, paper: 345.6/358.4", r.Fiber85Values)
	}
}

func TestClockSyncBound(t *testing.T) {
	r := RunClockSync(ScaleTest, 8)
	if r.MaxErrorNS > 19.2 {
		t.Errorf("worst sync error = %.1f ns, paper bound: 19.2", r.MaxErrorNS)
	}
}

func TestDrift(t *testing.T) {
	r := RunDrift(ScaleTest, 9)
	if math.Abs(r.MeasuredPPM-35) > 1 {
		t.Errorf("drift = %.1f µs/s, configured worst case: 35", r.MeasuredPPM)
	}
	if math.Abs(r.ResidualRelative-0.000035) > 1e-6 {
		t.Errorf("residual relative error = %v, paper: 0.0035%%", r.ResidualRelative)
	}
}

func TestTable4Shape(t *testing.T) {
	r := RunTable4(ScaleTest, 10)
	get := func(g Generator, kpps float64) *InterArrivalResult {
		for _, c := range r.Cells {
			if c.Generator == g && c.RateKpps == kpps {
				return c
			}
		}
		t.Fatalf("missing cell %s %v", g, kpps)
		return nil
	}
	// 500 kpps: MoonGen has (almost) no micro-bursts, ~half the gaps
	// within ±64ns and nearly all within ±256ns; zsend is dominated by
	// micro-bursts with a scattered remainder.
	mg := get(GenMoonGen, 500)
	if mg.MicroBurst > 0.01 {
		t.Errorf("MoonGen 500k micro-bursts = %.3f", mg.MicroBurst)
	}
	if mg.Within[64] < 0.35 || mg.Within[64] > 0.65 {
		t.Errorf("MoonGen 500k ±64ns = %.3f, paper: 0.499", mg.Within[64])
	}
	if mg.Within[256] < 0.95 {
		t.Errorf("MoonGen 500k ±256ns = %.3f, paper: 0.998", mg.Within[256])
	}
	pg := get(GenPktgen, 500)
	if pg.Within[64] >= mg.Within[64] {
		t.Errorf("Pktgen ±64ns %.3f should trail MoonGen %.3f", pg.Within[64], mg.Within[64])
	}
	zs := get(GenZsend, 500)
	if math.Abs(zs.MicroBurst-0.286) > 0.06 {
		t.Errorf("zsend 500k micro-bursts = %.3f, paper: 0.286", zs.MicroBurst)
	}
	if zs.Within[64] > 0.15 {
		t.Errorf("zsend 500k ±64ns = %.3f, paper: 0.039", zs.Within[64])
	}
	// 1000 kpps: Pktgen degrades into micro-bursts; zsend worsens.
	pg1 := get(GenPktgen, 1000)
	if pg1.MicroBurst < 0.05 {
		t.Errorf("Pktgen 1M micro-bursts = %.3f, paper: 0.142", pg1.MicroBurst)
	}
	zs1 := get(GenZsend, 1000)
	if math.Abs(zs1.MicroBurst-0.52) > 0.08 {
		t.Errorf("zsend 1M micro-bursts = %.3f, paper: 0.52", zs1.MicroBurst)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("9-point DuT soak; covered by the full suite")
	}
	r := RunFig7(ScaleTest, 11)
	// MoonGen's interrupt rate exceeds zsend's at every load point
	// below saturation.
	peak := 0.0
	for i, l := range r.Loads {
		if l <= 1.5 {
			if r.MoonGen[i] < 1.5*r.Zsend[i] {
				t.Errorf("at %.2f Mpps: MoonGen %.0f Hz not >> zsend %.0f Hz", l, r.MoonGen[i], r.Zsend[i])
			}
		}
		if r.MoonGen[i] > peak {
			peak = r.MoonGen[i]
		}
	}
	if peak < 80e3 {
		t.Errorf("MoonGen peak interrupt rate = %.0f Hz, paper: ~1.5e5", peak)
	}
	// The descending branch: past saturation the DuT polls
	// continuously and the interrupt rate collapses.
	last := r.MoonGen[len(r.MoonGen)-1]
	if last > peak/2 {
		t.Errorf("interrupt rate did not collapse at overload: peak %.0f, 2Mpps %.0f", peak, last)
	}
}

func TestFig10Equivalence(t *testing.T) {
	r := RunFig10(ScaleTest, 12)
	// Paper: within 1.2 sigma of 0%, worst point 1.5%. With 600 probes
	// per point the quartile estimates carry a few percent of sampling
	// noise (the paper uses >=30k samples), and near saturation the
	// latency distribution widens, so the bound here is 10%.
	// `go run ./cmd/benchtab -full` shows the convergence at full scale.
	for q := 0; q < 3; q++ {
		for i, dev := range r.RelDev[q] {
			if math.Abs(dev) > 10 {
				t.Errorf("load %.2f Mpps quartile %d: deviation %.1f%% too large", r.Loads[i], q, dev)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("8-point DuT latency soak; covered by the full suite")
	}
	r := RunFig11(ScaleTest, 13)
	idx := func(load float64) int {
		for i, l := range r.Loads {
			if l == load {
				return i
			}
		}
		t.Fatalf("missing load %v", load)
		return -1
	}
	// Near saturation Poisson queueing pushes latency well above CBR.
	i18 := idx(1.8)
	if r.Poisson[i18][1] < 1.3*r.CBR[i18][1] {
		t.Errorf("at 1.8 Mpps: Poisson median %.1f µs not >> CBR %.1f µs",
			r.Poisson[i18][1], r.CBR[i18][1])
	}
	// At overload both collapse to the ~2 ms buffer-full latency. The
	// 2.0 Mpps point is barely past saturation (1.96 Mpps), so the
	// buffer fills slowly; steady state at test scale is asserted at
	// the deep-overload 2.5 Mpps point, but 2.0 must already be
	// clearly elevated and rising.
	i20 := idx(2.0)
	if r.CBR[i20][1] < 100 || r.Poisson[i20][1] < 100 {
		t.Errorf("2.0 Mpps medians %.0f/%.0f µs not elevated", r.CBR[i20][1], r.Poisson[i20][1])
	}
	i25 := idx(3.0)
	for _, v := range []float64{r.CBR[i25][1], r.Poisson[i25][1]} {
		if v < 1200 || v > 2600 {
			t.Errorf("overload median = %.0f µs, paper: ~2000", v)
		}
	}
	// At low load the two patterns are comparable.
	i01 := idx(0.1)
	if r.Poisson[i01][1] > 3*r.CBR[i01][1] {
		t.Errorf("at 0.1 Mpps: Poisson %.1f vs CBR %.1f µs diverge too much",
			r.Poisson[i01][1], r.CBR[i01][1])
	}
}

// TestMulticoreScaling pins the Figure-4 scaling table produced by the
// sharded subsystem at a fixed seed: linear scaling in both regimes,
// the wire-rate ceiling at 2 GHz, the paper's 178.5 Mpps headline at
// 12 cores, and agreement with the cycle-cost prediction.
func TestMulticoreScaling(t *testing.T) {
	r := RunMulticoreScaling(ScaleTest, 14)
	if len(r.Mpps) != 12 {
		t.Fatalf("table has %d rows", len(r.Mpps))
	}
	// 2 GHz: every core pegs its port at the wire-rate ceiling.
	if math.Abs(r.Mpps[0]-r.LineRateMpps)/r.LineRateMpps > 0.005 {
		t.Errorf("1 core at 2 GHz = %.2f Mpps, want wire rate %.2f", r.Mpps[0], r.LineRateMpps)
	}
	if math.Abs(r.Mpps[11]-178.5) > 1.5 {
		t.Errorf("12 cores = %.1f Mpps, paper: 178.5", r.Mpps[11])
	}
	// 1.2 GHz: CPU-bound below the ceiling (100.8 cycles/pkt ⇒ ~11.9
	// Mpps/core).
	if r.MppsLow[0] >= r.LineRateMpps || math.Abs(r.MppsLow[0]-11.9) > 0.3 {
		t.Errorf("1 core at 1.2 GHz = %.2f Mpps, want ~11.9 (below ceiling)", r.MppsLow[0])
	}
	// Both series scale ~linearly, and match the model prediction.
	for i := range r.Mpps {
		wantHi, wantLo := float64(i+1)*r.Mpps[0], float64(i+1)*r.MppsLow[0]
		if math.Abs(r.Mpps[i]-wantHi)/wantHi > 0.01 {
			t.Errorf("%d cores at 2 GHz: %.2f Mpps, want ~%.2f (linear)", i+1, r.Mpps[i], wantHi)
		}
		if math.Abs(r.MppsLow[i]-wantLo)/wantLo > 0.01 {
			t.Errorf("%d cores at 1.2 GHz: %.2f Mpps, want ~%.2f (linear)", i+1, r.MppsLow[i], wantLo)
		}
		if math.Abs(r.Mpps[i]-r.Predicted[i])/r.Predicted[i] > 0.01 {
			t.Errorf("%d cores: measured %.2f vs predicted %.2f Mpps", i+1, r.Mpps[i], r.Predicted[i])
		}
		if math.Abs(r.MppsLow[i]-r.PredictedLow[i])/r.PredictedLow[i] > 0.01 {
			t.Errorf("%d cores low: measured %.2f vs predicted %.2f Mpps", i+1, r.MppsLow[i], r.PredictedLow[i])
		}
	}
	// The merged per-core counters must agree with the ceiling.
	if math.Abs(r.PerCoreMpps-r.LineRateMpps) > 0.3 {
		t.Errorf("per-core merged rate = %.2f ± %.2f, want ~%.2f", r.PerCoreMpps, r.PerCoreStd, r.LineRateMpps)
	}
}

// TestMulticoreScalingDeterministic: the sharded experiment is exactly
// reproducible although its shards race on real goroutines — this is
// the fixed-seed pin for the whole table.
func TestMulticoreScalingDeterministic(t *testing.T) {
	if testing.Short() {
		// One 4-core point instead of two full tables.
		am, _ := runMulticorePoint(ScaleTest, 14, 4, cpu.SimpleUDPWorkload, 2*cpu.GHz)
		bm, _ := runMulticorePoint(ScaleTest, 14, 4, cpu.SimpleUDPWorkload, 2*cpu.GHz)
		if am != bm {
			t.Fatalf("4-core point differs across runs: %v vs %v", am, bm)
		}
		return
	}
	a := RunMulticoreScaling(ScaleTest, 14)
	b := RunMulticoreScaling(ScaleTest, 14)
	for i := range a.Mpps {
		if a.Mpps[i] != b.Mpps[i] || a.MppsLow[i] != b.MppsLow[i] {
			t.Errorf("%d cores: runs differ: %v/%v vs %v/%v",
				i+1, a.Mpps[i], a.MppsLow[i], b.Mpps[i], b.MppsLow[i])
		}
	}
	if a.PerCoreMpps != b.PerCoreMpps || a.PerCoreStd != b.PerCoreStd {
		t.Errorf("merged counter stats differ across runs")
	}
}

// TestScalingBedTakesNoDeliveryEvents: nothing observes a scaling
// bed's sink, so its link takes no event and a 1-port costLoad costs
// 0.068 events per sent packet.
func TestScalingBedTakesNoDeliveryEvents(t *testing.T) {
	app := core.NewApp(1)
	l := &costLoad{freq: 2.4 * cpu.GHz, workload: cpu.SimpleUDPWorkload, pktSize: 60, queues: buildPortPairs(app, nic.ChipX540, 1, 1)}
	l.run(app, sim.Millisecond)
	tx := l.queues[0][0].Port().CounterSnapshot().TxPackets
	if perPkt := float64(app.Eng.EventsProcessed()) / float64(tx); tx == 0 || perPkt > 0.08 {
		t.Fatalf("%d engine events for %d sent packets (%.3f each), want at most 0.08", app.Eng.EventsProcessed(), tx, perPkt)
	}
}
