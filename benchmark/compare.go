package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readRuns groups a runs.jsonl file's untraced values by workload and
// metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a for one metric: how much worse b's median is
// as a share of a's, against the bound — unless either side's own
// run-to-run spread is wider than the bound, which resolves nothing.
func verdict(a, b []float64, m bound) (spreadMax float64, v string) {
	ma, mb := median(a), median(b)
	worse := mb/ma - 1
	if m.Better == "higher" {
		worse = 1 - mb/ma
	}
	spreadMax = max(spread(a), spread(b))
	switch {
	case spreadMax > m.Bound:
		return spreadMax, verdictUnresolved
	case worse > m.Bound:
		return spreadMax, verdictRegressed
	}
	return spreadMax, verdictOK
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict. It reports whether
// any pairing regressed.
func compareFiles(w io.Writer, boundsPath, aPath, bPath string) (regressed bool, err error) {
	bounds, err := readBounds(boundsPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-24s %-14s %14s %14s %-9s %22s %7s %7s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "unit", "b/a (base a)", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, m := range bounds {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sp, v := verdict(va, vb, m)
			regressed = regressed || v == verdictRegressed
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-24s %-14s %14.4f %14.4f %-9s %9.4f of %9.4f %7.2f %7.3f  %s (n=%d,%d)\n",
				wl.name, m.Name, ma, mb, m.Unit, mb/ma, ma, m.Bound, sp, v, len(va), len(vb))
		}
	}
	return regressed, nil
}
