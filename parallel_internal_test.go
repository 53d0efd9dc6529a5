package genima

// White-box tests for the worker pool and the experiment runner.

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"genima/internal/apps/barrierbench"
)

func TestParallelForRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var hits [100]atomic.Int32
		if err := parallelFor(workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := parallelFor(workers, 50, func(i int) error {
			switch i {
			case 13:
				return errA
			case 40:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error %v", workers, err, errA)
		}
	}
}

func TestParallelForZeroTasks(t *testing.T) {
	if err := parallelFor(4, 0, func(int) error { t.Fatal("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteWorkersDefaults(t *testing.T) {
	if got := suiteWorkers(1); got != 1 {
		t.Fatalf("suiteWorkers(1) = %d", got)
	}
	if got := suiteWorkers(0); got < 1 {
		t.Fatalf("suiteWorkers(0) = %d", got)
	}
	if got := suiteWorkers(9); got != 9 {
		t.Fatalf("suiteWorkers(9) = %d", got)
	}
}

// TestRunAllValidatesEveryRun hands runAll a hardware run whose output
// differs from its reference: the runner must fail and name that run,
// whatever the worker count.
func TestRunAllValidatesEveryRun(t *testing.T) {
	bench := func(rounds int) func() App { return func() App { return barrierbench.New(rounds) } }
	refs := []job{{label: "seq", cfg: DefaultConfig(), app: bench(2)}}
	runs := []job{
		{label: "good", cfg: DefaultConfig(), app: bench(2), kind: GeNIMA},
		{label: "bad", cfg: DefaultConfig(), app: bench(3), hw: true},
	}
	for _, workers := range []int{1, 2} {
		_, _, err := runAll(SuiteOptions{Workers: workers}, refs, runs)
		if err == nil || !strings.HasPrefix(err.Error(), "bad: ") {
			t.Errorf("workers=%d: err = %v, want a validation failure of run \"bad\"", workers, err)
		}
	}
}
