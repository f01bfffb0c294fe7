package ivmeps_test

import (
	"fmt"
	"testing"
)

// TestServerLoopbackProperty: an engine served over HTTP on a loopback
// listener is observationally the engine. Under commit traffic through
// internal/client, every streamed read — racing the commits after it —
// equals naive's result at the epoch it observed, and every remote
// watcher's fold — full, view-filtered, and closed and resumed from its last
// epoch — equals the engine's root views at every epoch. Run under -race,
// it covers the server's commit/read/watch interleavings. The scenario
// driver (scenario_test.go) does the checking.
func TestServerLoopbackProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := newScenario(t, target{query: twoPath, eps: 0.5, remote: true}, seed)
			g := gen{mix: map[string]int{"batch": 6, "read": 3, "watch": 1, "close": 1}, ops: 16, domain: 8}
			sc.load(g)
			sc.run(step{Do: "watch"}, step{Do: "watch", Arg: sc.eng.Views()[0]}, step{Do: "watch"})
			sc.gen(g, 100)
			sc.end()
			if sc.count["read"] == 0 {
				t.Fatal("no remote read was made")
			}
		})
	}
}
