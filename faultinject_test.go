package ivmeps_test

import (
	"testing"

	"ivmeps/internal/wal/faultfs"
)

// Fault-injection tests: every I/O operation the durability layer performs
// is made to fail, one (site, ordinal) at a time, over a scripted workload
// the scenario driver (scenario_test.go) replays and holds to naive. The
// invariants are the package's failure model (docs/DURABILITY.md): a failed
// mutation returns a typed LogWedgedError with the engine state untouched,
// every later mutation refuses while reads keep serving, Close returns nil,
// and Open on the directory recovers exactly a committed state — the last
// acknowledged commit, or the uncertain in-flight one if its record reached
// disk — never silently wrong data and never a CorruptLogError caused by
// the failure.

// fiTarget's small segments make the script's net effect cross segment
// rotations.
var fiTarget = target{query: twoPath, eps: 0.5, seg: 128}

// fiScript is the scripted workload: the seed load, Build, every mutation
// entry point, deletes, checkpoints mid-stream, and a final reopen. Every
// delete is valid given the preceding steps; after a fault lost a commit,
// the driver expects the over-deletes that follow to be refused.
var fiScript = []step{
	{Do: "load", Ops: []op{{"R", []int64{1, 1}, 1}, {"R", []int64{2, 1}, 1}, {"S", []int64{1, 3}, 1}}},
	{Do: "build"},
	{Do: "apply", Ops: []op{{"R", []int64{3, 1}, 1}}},
	{Do: "applybatch", Ops: []op{{"S", []int64{1, 4}, 2}, {"S", []int64{2, 5}, 1}}},
	{Do: "batch", Ops: []op{{"R", []int64{4, 2}, 1}, {"S", []int64{2, 6}, 1}}},
	{Do: "apply", Ops: []op{{"R", []int64{1, 1}, -1}}},
	{Do: "checkpoint"},
	{Do: "apply", Ops: []op{{"S", []int64{1, 7}, 1}}},
	{Do: "batch", Ops: []op{{"R", []int64{2, 1}, 2}, {"S", []int64{1, 3}, -1}}},
	{Do: "applybatch", Ops: []op{{"R", []int64{5, 1}, 1}, {"R", []int64{6, 2}, 1}}},
	{Do: "apply", Ops: []op{{"S", []int64{2, 8}, 1}}},
	{Do: "checkpoint"},
	{Do: "batch", Ops: []op{{"R", []int64{3, 1}, -1}, {"S", []int64{1, 4}, -2}}},
	{Do: "apply", Ops: []op{{"R", []int64{7, 3}, 1}}},
	{Do: "reopen"},
}

// TestFaultInjectionMatrix is the robustness headline: run the workload
// once per (operation kind, ordinal) pair with that exact operation failing
// — plus an ENOSPC short-write variant for every write, which leaves a torn
// frame recovery must truncate.
func TestFaultInjectionMatrix(t *testing.T) {
	// Fault-free counting run: learn how many operations of each kind the
	// workload performs, so the matrix addresses each one.
	clean := newScenario(t, fiTarget, 0)
	clean.run(fiScript...)
	clean.end()
	counts := clean.fs.Counts()
	if counts[faultfs.Write] == 0 || counts[faultfs.FileSync] == 0 || counts[faultfs.Rename] == 0 {
		t.Fatalf("counting run saw no writes/syncs/renames: %v", counts)
	}
	var faults []step
	for _, kind := range faultfs.Kinds {
		for nth := 1; nth <= counts[kind]; nth++ {
			faults = append(faults, step{Do: "fault", Arg: string(kind), N: nth})
		}
	}
	for nth := 1; nth <= counts[faultfs.Write]; nth++ {
		faults = append(faults, step{Do: "fault", Arg: "enospc", N: nth})
	}
	for _, fault := range faults {
		sc := newScenario(t, fiTarget, 0)
		sc.run(append([]step{fault}, fiScript...)...)
		sc.end()
		if !sc.fs.Tripped() {
			t.Fatalf("%#v: the armed fault never fired", fault)
		}
	}
	t.Logf("%d fault scenarios (counts %v)", len(faults), counts)
}

// TestFaultInjectedOpen injects faults into recovery itself: for every I/O
// operation the final reopen performs, a failure must surface as an error —
// never as silently wrong data — and must leave the directory undamaged, so
// a clean retry, and the second reopen after it, recover exactly the
// committed state.
func TestFaultInjectedOpen(t *testing.T) {
	script := fiScript[: len(fiScript)-1 : len(fiScript)-1]
	clean := newScenario(t, fiTarget, 0)
	clean.run(script...)
	before := clean.fs.Counts()
	clean.run(step{Do: "reopen"})
	after := clean.fs.Counts()
	clean.end()
	for _, kind := range faultfs.Kinds {
		for nth := 1; nth <= after[kind]-before[kind]; nth++ {
			sc := newScenario(t, fiTarget, 0)
			sc.run(append(script, step{Do: "fault", Arg: string(kind), N: nth}, step{Do: "reopen"}, step{Do: "reopen"})...)
			sc.end()
		}
	}
}
