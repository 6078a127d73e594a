// Command skybench is the repository's benchmark: one end-to-end,
// layer-attributed measurement of the live broadcast pipeline and of the
// simulator. See ../README.md for the metric glossary and how to run it.
//
//	go run -C benchmark ./skybench -workload all -seed 1
//	go run -C benchmark ./skybench -workload dense_tick -seed 1 -trace 1
//	go run -C benchmark ./skybench -check out/dense_tick.json
//	go run -C benchmark ./skybench -compare out/a.json out/b.json
//
// The benchmark driver runs it through ../run.sh as
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>` and reads
// the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"skyscraper/benchmark/harness"
)

func main() {
	var (
		role      = flag.String("role", "", "child mode: server or audience (set by the orchestrator, not by hand)")
		workload  = flag.String("workload", "all", "workload to run: "+workloadNames()+" or all")
		seed      = flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds   = flag.Float64("seconds", harness.RunSeconds, "measured window per run, seconds")
		trace     = flag.Int("trace", 0, "1 repeats the workload as the traced run: spans, layer probes, CPU profile")
		short     = flag.Bool("short", false, "smoke mode: 3-second windows, output marked not_for_claims")
		repeat    = flag.Int("repeat", 1, "runs per workload; -compare reads spreads off repeated runs")
		out       = flag.String("out", "", "also write every report of this invocation to this file")
		check     = flag.String("check", "", "lint a report file against BENCHMARK.json and exit")
		compare   = flag.Bool("compare", false, "compare two report files (baseline, candidate) and exit")
		allowKill = flag.Bool("allow-killswitch", false, "run even with a SKYSCRAPER_NO_* kill-switch set (it is stamped)")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
		glossary  = flag.Bool("glossary", false, "print the metric glossary as markdown and exit")
	)
	flag.Parse()

	switch *role {
	case "":
	case "server":
		exitOn(harness.RunServerRole(os.Stdin, os.Stdout))
		return
	case "audience":
		exitOn(harness.RunAudienceRole(os.Stdin, os.Stdout))
		return
	default:
		exitOn(fmt.Errorf("unknown role %q", *role))
	}

	root := findRoot()
	switch {
	case *manifest:
		buf, err := harness.Manifest()
		exitOn(err)
		os.Stdout.Write(buf)
		return
	case *glossary:
		harness.PrintGlossary(os.Stdout)
		return
	case *check != "":
		reports, err := harness.ReadReports(*check)
		exitOn(err)
		man, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		exitOn(err)
		if bad := harness.Lint(man, reports); len(bad) > 0 {
			for _, b := range bad {
				fmt.Println(b)
			}
			os.Exit(1)
		}
		fmt.Printf("%s: %d report(s) conform to BENCHMARK.json\n", *check, len(reports))
		return
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare wants two report files: baseline candidate"))
		}
		a, err := harness.ReadReports(flag.Arg(0))
		exitOn(err)
		b, err := harness.ReadReports(flag.Arg(1))
		exitOn(err)
		if harness.PrintCompare(os.Stdout, harness.Compare(a, b)) {
			os.Exit(1)
		}
		return
	}

	if on := harness.ActiveKillSwitches(); len(on) > 0 && !*allowKill {
		exitOn(fmt.Errorf("%s set: that measures a demoted data path; pass -allow-killswitch to run (and stamp) it anyway", strings.Join(on, ", ")))
	}
	if *short {
		*seconds = 3
	}
	var names []string
	if *workload == "all" {
		for _, w := range harness.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := harness.WorkloadByName(*workload); ok {
		names = []string{*workload}
	} else {
		exitOn(fmt.Errorf("unknown workload %q (want %s or all)", *workload, workloadNames()))
	}

	outDir := filepath.Join(root, "benchmark", "out")
	exitOn(os.MkdirAll(outDir, 0o755))
	procs := harness.NewProcs()
	opt := harness.Options{Trace: *trace != 0, Root: root, OutDir: outDir, Procs: procs, Pauses: harness.StartPauseWatch(),
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "skybench: "+format+"\n", args...) }}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		procs.KillAll()
		os.Exit(130)
	}()
	fail := func(err error) {
		procs.KillAll()
		exitOn(err)
	}

	var all []*harness.Report
	for _, name := range names {
		w, _ := harness.WorkloadByName(name)
		var reports []*harness.Report
		for i := 0; i < *repeat; i++ {
			var rep *harness.Report
			var err error
			if w.Live != nil {
				rep, err = harness.RunLive(w, *seed, *seconds, opt)
			} else {
				rep, err = harness.RunSim(*seed, *seconds, opt)
			}
			if err != nil {
				fail(fmt.Errorf("%s: %w", name, err))
			}
			rep.Print(os.Stdout)
			reports = append(reports, rep)
		}
		harness.CheckRepeats(reports)
		file := name + ".json"
		if opt.Trace {
			file = name + ".traced.json"
		}
		if err := harness.WriteReports(filepath.Join(outDir, file), reports); err != nil {
			fail(err)
		}
		all = append(all, reports...)
	}
	if *out != "" {
		if err := harness.WriteReports(*out, all); err != nil {
			fail(err)
		}
	}
	line, err := all[len(all)-1].DriverLine()
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n", line)
}

func workloadNames() string {
	var names []string
	for _, w := range harness.Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// findRoot is the directory holding BENCHMARK.json: the working directory
// under the driver, its parent under `go run -C benchmark`.
func findRoot() string {
	dir, err := os.Getwd()
	exitOn(err)
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "skybench:", err)
		os.Exit(1)
	}
}
