// Persistent cache across runs: the follow-on the paper's conclusion points
// toward. Long-lived traces dominate cache value, so keep them: after a
// "first launch" of an application, snapshot the generational manager's
// persistent cache to a file; at the next launch, rebuild those traces
// against the program image and preload them — their generation cost is
// simply gone.
//
//	go run ./examples/persistcache
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/persist"
	"repro/internal/workload"
)

func main() {
	profile, ok := workload.ByName("winzip")
	if !ok {
		log.Fatal("benchmark missing")
	}
	p := profile.Scaled(0.0625)
	bench, err := workload.Synthesize(p)
	if err != nil {
		log.Fatal(err)
	}
	capacity := uint64(1 << 20)

	run := func(preloaded int, warm []byte) (dbt.RunStats, []byte) {
		mgr, err := core.NewGraph(core.Layout451045Threshold1(capacity).GraphSpec(), nil)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := dbt.New(bench.Image, dbt.Config{Manager: mgr})
		if err != nil {
			log.Fatal(err)
		}
		if warm != nil {
			img, err := persist.Load(bytes.NewReader(warm))
			if err != nil {
				log.Fatal(err)
			}
			traces, rejected := persist.Rebuild(img, bench.Image)
			if err := engine.Preload(traces); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("warm start: rebuilt %d persisted traces (%d rejected by validation)\n",
				len(traces), rejected)
		}
		if err := engine.Run(bench.NewDriver(), 0); err != nil {
			log.Fatal(err)
		}
		// Snapshot the persistent cache for the next launch.
		img := persist.Snapshot(p.Name, mgr, engine.TraceByID)
		var buf bytes.Buffer
		if err := persist.Save(&buf, img); err != nil {
			log.Fatal(err)
		}
		return engine.Stats(), buf.Bytes()
	}

	fmt.Printf("%s-like workload, %s total generational cache\n\n", p.Name, kb(capacity))

	cold, file := run(0, nil)
	fmt.Printf("cold run:  %5d traces generated, %6.2f M overhead-free guest instructions, %d misses\n",
		cold.TracesCreated, float64(cold.GuestInstrs)/1e6, cold.Misses)
	fmt.Printf("snapshot:  %s written\n\n", kb(uint64(len(file))))

	warm, _ := run(0, file)
	fmt.Printf("warm run:  %5d traces generated (%d fewer), %d misses\n",
		warm.TracesCreated, cold.TracesCreated-warm.TracesCreated, warm.Misses)

	model := repro.DefaultCostModel
	saved := float64(cold.TracesCreated-warm.TracesCreated) * model.TraceGen(242)
	fmt.Printf("\nestimated startup work avoided: ~%.1f M instructions of trace generation\n", saved/1e6)
}

func kb(n uint64) string { return fmt.Sprintf("%.1f KB", float64(n)/1024) }
