package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"genima/internal/sim"
)

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(Compute, 100)
	b.Add(Compute, 50)
	b.Add(Data, 30)
	b.Add(Barrier, 20)
	if b.Total() != 200 {
		t.Errorf("total = %d", b.Total())
	}
	if b.Overhead() != 50 {
		t.Errorf("overhead = %d", b.Overhead())
	}
}

func TestBreakdownMergeAndAverage(t *testing.T) {
	a := Breakdown{}
	a.Add(Compute, 100)
	b := Breakdown{}
	b.Add(Compute, 300)
	b.Add(Lock, 40)
	avg := Average([]Breakdown{a, b})
	if avg.T[Compute] != 200 {
		t.Errorf("avg compute = %d", avg.T[Compute])
	}
	if avg.T[Lock] != 20 {
		t.Errorf("avg lock = %d", avg.T[Lock])
	}
	if z := Average(nil); z.Total() != 0 {
		t.Error("empty average not zero")
	}
}

func TestFractionsSumToOne(t *testing.T) {
	prop := func(c, d, l, bar uint16) bool {
		var b Breakdown
		b.Add(Compute, sim.Time(c))
		b.Add(Data, sim.Time(d))
		b.Add(Lock, sim.Time(l))
		b.Add(Barrier, sim.Time(bar))
		f := b.Fractions()
		sum := 0.0
		for _, v := range f {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		if b.Total() == 0 {
			return sum == 0
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryNames(t *testing.T) {
	want := []string{"Compute", "Data", "Lock", "Barrier"}
	for i, w := range want {
		if Category(i).String() != w {
			t.Errorf("category %d = %q, want %q", i, Category(i), w)
		}
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Error("out-of-range category should embed its value")
	}
}

func TestSVMAccountingMerge(t *testing.T) {
	a := SVMAccounting{Mprotect: 10, MprotectOps: 2, PageFetches: 5, Interrupts: 1}
	b := SVMAccounting{Mprotect: 5, MprotectOps: 1, PageFetches: 3, LockOps: 7}
	a.Merge(b)
	if a.Mprotect != 15 || a.MprotectOps != 3 || a.PageFetches != 8 || a.LockOps != 7 || a.Interrupts != 1 {
		t.Errorf("merged = %+v", a)
	}
}

func TestHelpers(t *testing.T) {
	if Seconds(sim.Second) != 1 {
		t.Error("Seconds(1s) != 1")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("App", "Speedup")
	tab.Row("FFT", 2.5)
	tab.Row("LU-contiguous", 7.0)
	out := tab.String()
	if !strings.Contains(out, "FFT") || !strings.Contains(out, "2.50") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines", len(lines))
	}
	// Columns align: both rows start their second column at the same
	// offset as the header's.
	idx := strings.Index(lines[0], "Speedup")
	if !strings.HasPrefix(lines[2][idx:], "2.50") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}
