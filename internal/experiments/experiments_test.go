package experiments

import (
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4",
		"fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablations"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("missing driver for %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d drivers, want %d", len(Registry), len(want))
	}
	if _, err := Run("nope", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestEveryDriverProducesWellFormedReport(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, quick)
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != id {
				t.Fatalf("report id %q", r.ID)
			}
			if len(r.Sections) == 0 {
				t.Fatal("no sections")
			}
			for _, s := range r.Sections {
				if len(s.Rows) == 0 {
					t.Fatalf("section %q empty", s.Name)
				}
				for _, row := range s.Rows {
					if len(row) != len(s.Headers) {
						t.Fatalf("section %q: row width %d != headers %d", s.Name, len(row), len(s.Headers))
					}
				}
			}
			md := r.Markdown()
			if !strings.Contains(md, r.Title) {
				t.Fatal("markdown missing title")
			}
			if got := titles[id]; got != r.Title {
				t.Fatalf("Describe title %q out of sync with driver title %q", got, r.Title)
			}
		})
	}
}

func TestDescribeCoversRegistry(t *testing.T) {
	infos := Describe()
	if len(infos) != len(Registry) {
		t.Fatalf("Describe lists %d experiments, registry has %d", len(infos), len(Registry))
	}
	for _, info := range infos {
		if _, ok := Registry[info.ID]; !ok {
			t.Errorf("Describe lists unknown id %q", info.ID)
		}
		if info.Title == "" {
			t.Errorf("experiment %q has no title", info.ID)
		}
	}
}

// parse "1.23x" → 1.23
func parseSpeedup(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", s)
	}
	return v
}

func TestFig8MemoryReductionPositive(t *testing.T) {
	r := Fig8(quick)
	for _, row := range r.Sections[0].Rows {
		dense, _ := strconv.ParseFloat(row[2], 64)
		le, _ := strconv.ParseFloat(row[3], 64)
		if le >= dense {
			t.Errorf("seq %s %s: LE arena %.3f MiB not below dense %.3f MiB", row[0], row[1], le, dense)
		}
	}
}

func TestFig9HeadSpecificBeatsUniform(t *testing.T) {
	r := Fig9(quick)
	attn := r.Sections[0]
	for _, row := range attn.Rows {
		shadowy, _ := strconv.ParseFloat(row[1], 64)
		le, _ := strconv.ParseFloat(row[4], 64)
		if le < shadowy-1e-9 {
			t.Errorf("layer %s: LE sparsity %.3f below uniform %.3f", row[0], le, shadowy)
		}
	}
	// MLP threshold sweep must be monotone non-decreasing across columns.
	mlp := r.Sections[1]
	for _, row := range mlp.Rows {
		prev := -1.0
		for _, cell := range row[2:] {
			v, _ := strconv.ParseFloat(cell, 64)
			if v+1e-9 < prev {
				t.Errorf("layer %s: threshold sweep not monotone: %v", row[0], row[2:])
			}
			prev = v
		}
	}
}

func TestFig11LongExposureTracksDense(t *testing.T) {
	r := Fig11(quick)
	loss := r.Sections[0]
	final := len(loss.Headers) - 1
	get := func(i int) float64 {
		v, err := strconv.ParseFloat(loss.Rows[i][final], 64)
		if err != nil {
			t.Fatalf("bad loss cell %q", loss.Rows[i][final])
		}
		return v
	}
	dense, le := get(0), get(1)
	if le > dense*1.5+0.2 {
		t.Errorf("LE final loss %.3f strays from dense %.3f", le, dense)
	}
}

func TestFig12SpeedupAtHighSparsity(t *testing.T) {
	r := Fig12(quick)
	for _, sec := range r.Sections[:2] {
		lastRow := sec.Rows[len(sec.Rows)-1] // 95% sparsity
		s := parseSpeedup(t, lastRow[len(lastRow)-1])
		if s < 1.5 {
			t.Errorf("%s: 95%% sparsity speedup %.2f < 1.5", sec.Name, s)
		}
	}
}

func TestTable1OptimizerShareCollapses(t *testing.T) {
	r := Table1(quick)
	measured := r.Sections[0]
	// Row 0 is FullFT, row 1 LoRA; optimizer column is index 3 of the form
	// "x (y%)". Extract the percentage.
	sharePct := func(cell string) float64 {
		open := strings.Index(cell, "(")
		closep := strings.Index(cell, "%")
		v, err := strconv.ParseFloat(cell[open+1:closep], 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	full := sharePct(measured.Rows[0][3])
	lora := sharePct(measured.Rows[1][3])
	if full <= lora {
		t.Errorf("FullFT optimizer share %.1f%% not above LoRA's %.1f%%", full, lora)
	}
}

func TestTable4AccuracyPreserved(t *testing.T) {
	r := Table4(quick)
	// The worst-drop note is first; parse the percentage.
	note := r.Notes[0]
	idx := strings.Index(note, ":")
	pctIdx := strings.Index(note[idx:], "%")
	v, err := strconv.ParseFloat(strings.TrimSpace(note[idx+1:idx+pctIdx]), 64)
	if err != nil {
		t.Fatalf("cannot parse worst drop from %q", note)
	}
	if v > 15 {
		t.Errorf("worst accuracy drop %.1f%% too large even for quick mode", v)
	}
}

func TestRunAllStableOrder(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}
