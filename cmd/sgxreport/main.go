// Command sgxreport regenerates every table and figure of the
// SGXGauge paper's evaluation against the simulated SGX machine.
//
// Usage:
//
//	sgxreport [-epc pages] [-exp id[,id...]] [-j workers] [-progress]
//
// Experiment ids: fig2 fig3 fig4 tab2 tab4 fig5 fig6a fig6bc fig6d
// fig7 fig8 tab5 fig9 fig10, or "all" (default). The list comes from
// harness.Experiments(), the same registry the sgxgauged daemon's
// /v1/figures endpoint serves. Runs within an experiment execute on a
// parallel worker pool (-j); results are identical to a serial run.
//
// Stdout holds only the report — a header, then "[id]" and the
// rendered text of each experiment — and is byte-identical for the
// same flags at any -j. Per-experiment host timings ("generated in")
// and progress lines go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
)

func main() {
	epcPages := flag.Int("epc", sgx.DefaultEPCPages, "simulated EPC size in 4 KiB pages (paper hardware: 23552)")
	exps := flag.String("exp", "all", "comma-separated experiment ids (fig2,fig3,fig4,tab2,tab4,fig5,fig6a,fig6bc,fig6d,fig7,fig8,tab5,fig9,fig10,multi) or 'all'")
	seed := flag.Int64("seed", 1, "base random seed")
	jobs := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report per-run progress to stderr")
	flag.Parse()

	r := harness.NewRunner(*epcPages)
	r.Seed = *seed
	r.Jobs = *jobs
	if *progress {
		r.Progress = func(p harness.Progress) {
			status := ""
			if p.Err != nil {
				status = "  FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%v %v%s\n",
				p.Completed, p.Total, p.Name, p.Mode, p.Wall.Round(time.Millisecond), status)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	fmt.Printf("SGXGauge report — simulated EPC: %d pages (%d MiB equivalent scale)\n\n",
		*epcPages, *epcPages*4/1024)
	ran := 0
	for _, e := range harness.Experiments() {
		if !all && !want[e.ID] {
			continue
		}
		start := time.Now()
		out, err := e.Render(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgxreport: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		// Stdout carries only the report, so the same flags give the
		// same bytes; host timing goes to stderr.
		fmt.Printf("[%s]\n%s\n", e.ID, out)
		fmt.Fprintf(os.Stderr, "sgxreport: [%s] generated in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "sgxreport: no experiment matched %q\n", *exps)
		os.Exit(2)
	}
}
