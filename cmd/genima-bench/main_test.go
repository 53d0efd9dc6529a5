package main

import (
	"strings"
	"testing"
)

func TestParseExperimentsAcceptsValidNames(t *testing.T) {
	for _, in := range []string{
		"all",
		"fig2,table3",
		" serve ",
		"soak",
		"scaling,faultsweep,scalesweep,serve",
		"fig1,fig2,fig3,fig4,table1,table2,table3,table4,table5",
	} {
		want, err := parseExperiments(in)
		if err != nil {
			t.Errorf("parseExperiments(%q) = %v", in, err)
			continue
		}
		for _, name := range strings.Split(in, ",") {
			if name = strings.TrimSpace(name); name != "" && !want[name] {
				t.Errorf("parseExperiments(%q) lost %q", in, name)
			}
		}
	}
}

func TestParseExperimentsRejectsUnknownNames(t *testing.T) {
	for _, in := range []string{
		"serv", // the typo class that used to silently run nothing
		"fig2,tabel3",
		"bogus",
		"all,xyzzy",
		"",
		" , ",
	} {
		_, err := parseExperiments(in)
		if err == nil {
			t.Errorf("parseExperiments(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "valid experiments") ||
			!strings.Contains(err.Error(), "serve") {
			t.Errorf("parseExperiments(%q) error does not list valid experiments: %v", in, err)
		}
	}
}
