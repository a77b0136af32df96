package experiments

import (
	"fmt"
	"sort"
)

// Driver regenerates one paper artifact.
type Driver func(Options) *Report

// Registry maps experiment ids to drivers.
var Registry = map[string]Driver{
	"ablations": Ablations,
	"fig4":      Fig4,
	"table1":    Table1,
	"table2":    Table2,
	"table3":    Table3,
	"table4":    Table4,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"fig13":     Fig13,
}

// titles names each experiment without running it (drivers set the same
// title on their Report); Describe serves them to API listings.
var titles = map[string]string{
	"ablations": "Design-choice ablations (measured, sim scale)",
	"fig4":      "Shadowy sparsity: single-token vs sequence-level sparsity (measured)",
	"table1":    "OPT-1.3B fine-tuning time breakdown (ms/batch)",
	"table2":    "Models for evaluation",
	"table3":    "Downstream tasks for evaluation",
	"table4":    "Downstream accuracy with (w) and without (w/o) Long Exposure",
	"fig7":      "Execution time per batch and speedup of OPT (measured, sim scale)",
	"fig8":      "Memory footprints of OPT fine-tuning (measured step arena)",
	"fig9":      "Per-layer sparsity ratio and corresponding performance",
	"fig10":     "OPT-1.3B fine-tuning performance breakdown (sim-scale, measured)",
	"fig11":     "Fine-tuning loss curves and predictor visualization (measured)",
	"fig12":     "Dynamic operator performance vs dense across sparsity ratios (measured)",
	"fig13":     "Execution time per batch and speedup of GPT-2 (measured, attention-only)",
}

// Info describes one registered experiment without running it.
type Info struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// Describe lists every registered experiment with its title, in stable
// order — the static catalogue behind the job service's GET /v1/experiments.
func Describe() []Info {
	out := make([]Info, 0, len(Registry))
	for _, id := range IDs() {
		out = append(out, Info{ID: id, Title: titles[id]})
	}
	return out
}

// IDs lists the registered experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Report, error) {
	d, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return d(o), nil
}

// RunAll executes every experiment in a stable order.
func RunAll(o Options) []*Report {
	var out []*Report
	for _, id := range IDs() {
		out = append(out, Registry[id](o))
	}
	return out
}
