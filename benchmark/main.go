// Command benchmark is the repository's measurement spine: it starts each
// topology in-process through the public API, serves it on loopback TCP,
// drives it through the public clients as a closed loop, checks every
// result against a model, and reports end-to-end metrics (timed pass,
// tracing off) or per-layer metrics (traced pass). See README.md.
//
//	benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	benchmark compare A/ B/
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 1, "seeds the request stream: which ops, on which rows, in what order")
	seconds := flag.Int("seconds", runSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	clients := flag.Int("clients", min(2, runtime.NumCPU()), "closed-loop clients (one goroutine and connection set each); at most nproc")
	out := flag.String("out", "out", "directory for result and trace files")
	flag.Parse()

	if *clients < 1 || *clients > runtime.NumCPU() {
		fatalf("-clients %d: want 1..%d (nproc)", *clients, runtime.NumCPU())
	}
	if *seconds < 1 {
		fatalf("-seconds %d: want at least 1", *seconds)
	}
	todo := workloads
	if *workload != "" {
		sp := findWorkload(*workload)
		if sp == nil {
			fatalf("unknown workload %q", *workload)
		}
		todo = []*spec{sp}
	}
	ok := true
	for _, sp := range todo {
		res, err := runWorkload(runConfig{sp: sp, seed: *seed, seconds: *seconds, clients: *clients,
			trace: *trace != 0, outDir: *out})
		if err != nil {
			fatalf("%s: %v", sp.Name, err)
		}
		if err := res.save(*out); err != nil {
			fatalf("%s: save result: %v", sp.Name, err)
		}
		defs := endToEnd
		if res.Trace {
			defs = perLayer
		}
		res.report(defs)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
