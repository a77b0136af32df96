// Command longexp regenerates the paper's tables and figures.
//
// Usage:
//
//	longexp -exp fig7            # one experiment, full fidelity
//	longexp -exp all             # everything (slow)
//	longexp -exp table1 -quick   # reduced sizes, seconds instead of minutes
//	longexp -list                # show available experiment ids
//	longexp -exp fig9 -out out.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"longexposure/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (table1..table4, fig4, fig7..fig13, ablations, or 'all'; -list shows them)")
		quick = flag.Bool("quick", false, "reduced sizes for a fast pass")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		out   = flag.String("out", "", "write markdown to this file instead of stdout")
		seed  = flag.Uint64("seed", 0, "override the experiment seed")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	var reports []*experiments.Report
	if *exp == "all" {
		reports = experiments.RunAll(opts)
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, err := experiments.Run(strings.TrimSpace(id), opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			reports = append(reports, r)
		}
	}

	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.Markdown())
		b.WriteString("\n")
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
		return
	}
	fmt.Print(b.String())
}
