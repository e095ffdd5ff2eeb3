package main

import (
	"fmt"
	"math"

	"repro/internal/scenario"
)

// checkResult is one verdict on a run's output.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadChecks holds, per workload, the output checks every run of
// it must pass. The keys are the benchmark's workloads: each names a
// committed spec, workloads/<name>.yaml.
var workloadChecks = map[string]func(rep *scenario.Report, sp scenario.Spec) []checkResult{
	"flood64":     checkFlood,
	"overload4":   checkOverload,
	"churn-256k":  checkChurn,
	"dut-poisson": checkDuTPoisson,
	"flap-tel2c":  checkFlap,
}

// lineRate64 is 10GbE's 64-byte frame rate: 10 Gbit/s over 84 bytes
// of wire time (frame, preamble, SFD and inter-frame gap).
const lineRate64 = 14.881

func checkFlood(rep *scenario.Report, _ scenario.Spec) []checkResult {
	dev := math.Abs(rep.RxMpps/lineRate64 - 1)
	return []checkResult{
		verdict("rx at 14.881 Mpps ±0.1%", dev <= 0.001, "rx %.4f Mpps", rep.RxMpps),
	}
}

func checkOverload(rep *scenario.Report, _ scenario.Spec) []checkResult {
	txrx, clean := true, true
	var rx uint64
	for _, f := range rep.Flows {
		txrx = txrx && f.TxPackets == f.RxPackets
		clean = clean && f.Reordered == 0 && f.Duplicates == 0
		rx += f.RxPackets
	}
	admitted := rowValue(rep, "slots admitted at the line-rate gate")
	return []checkResult{
		verdict("per-flow tx == rx", txrx && len(rep.Flows) == 4, "%d flows", len(rep.Flows)),
		verdict("sum rx == slots admitted", float64(rx) == admitted, "rx %d, admitted %.0f", rx, admitted),
		verdict("no reordering or duplicates", clean, ""),
	}
}

func checkChurn(rep *scenario.Report, sp scenario.Spec) []checkResult {
	lost := rowValue(rep, "seq lost")
	reord := rowValue(rep, "seq reordered")
	dup := rowValue(rep, "seq duplicates")
	started := rowValue(rep, "flows started (tx)")
	tracked := rowValue(rep, "flows tracked (rx)")
	// Slot j starts a flow when its flow-local sequence j/W mod R is 0,
	// so S slots start W flows per full generation of W·R slots plus up
	// to W in the partial one.
	slots := rep.TxPackets
	w, r := uint64(sp.ChurnFlows), uint64(sp.ChurnLife)
	want := slots/(w*r)*w + min(slots%(w*r), w)
	return []checkResult{
		verdict("seq lost == reordered == dup == 0", lost == 0 && reord == 0 && dup == 0,
			"lost %.0f reordered %.0f dup %.0f", lost, reord, dup),
		verdict("flows tracked == flows started == starts of the tx slots",
			tracked == started && started == float64(want),
			"tracked %.0f started %.0f, %d slots start %d", tracked, started, slots, want),
	}
}

func checkDuTPoisson(rep *scenario.Report, _ scenario.Spec) []checkResult {
	probes := uint64(0)
	if rep.Latency != nil {
		probes = rep.Latency.Count()
	}
	fillers := rowValue(rep, "crc-gap filler frames")
	dropped := rowValue(rep, "DuT-ingress crc-dropped (fillers)")
	return []checkResult{
		verdict("probes measured, none lost", probes > 0 && rep.LostProbes == 0, "%d probes, %d lost", probes, rep.LostProbes),
		verdict("no DuT drops", rowValue(rep, "DuT dropped") == 0, ""),
		verdict("DuT-ingress crc-dropped == fillers", dropped == fillers, "dropped %.0f, fillers %.0f", dropped, fillers),
	}
}

func checkFlap(rep *scenario.Report, sp scenario.Spec) []checkResult {
	acct, split := len(rep.Flows) == 4, true
	for _, f := range rep.Flows {
		acct = acct && f.TxPackets == f.RxPackets+f.Lost
		split = split && f.Lost == f.LostDuringFault && f.LostInRecovery == 0
	}
	rows := 0
	if rep.Telemetry != nil {
		rows = len(rep.Telemetry.Rows)
	}
	// A run that ends inside a window still records it.
	want := int((sp.Runtime + sp.TelemetryInterval - 1) / sp.TelemetryInterval)
	return []checkResult{
		verdict("per-flow tx == rx + lost", acct, "%d flows", len(rep.Flows)),
		verdict("lost == lost-during-fault, lost-in-recovery == 0", split, ""),
		verdict("one telemetry row per window", rows == want, "%d rows, want %d", rows, want),
	}
}

// rowValue returns the value of the report row with the given label,
// NaN when the report has no such row, so every comparison fails.
func rowValue(rep *scenario.Report, label string) float64 {
	for _, r := range rep.Rows {
		if r.Label == label {
			return r.Value
		}
	}
	return math.NaN()
}

func verdict(name string, ok bool, format string, args ...any) checkResult {
	c := checkResult{Name: name, OK: ok}
	if !ok && format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}
