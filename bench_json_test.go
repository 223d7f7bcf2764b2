package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
)

// sketchRecallReport is the BENCH_sketch.json schema: the measured
// recall-vs-cost numbers of sketch-pruned k-NN against the exact pair
// loop (TestSketchRecallContract). Fully deterministic — no timings —
// so the committed snapshot only changes when retrieval quality does.
type sketchRecallReport struct {
	Schema              string  `json:"schema"`
	Corpus              int     `json:"corpus"`
	Queries             int     `json:"queries"`
	K                   int     `json:"k"`
	CandidateBudget     int     `json:"candidate_budget"`
	RecallAtK           float64 `json:"recall_at_k"`
	ExactEvalsPerQuery  float64 `json:"exact_evals_per_query"`
	SketchEvalsPerQuery float64 `json:"sketch_evals_per_query"`
	EvalRatio           float64 `json:"eval_ratio"`
}

var sketchRecallSink = struct {
	sync.Mutex
	report *sketchRecallReport
}{}

func recordSketchRecall(r sketchRecallReport) {
	sketchRecallSink.Lock()
	defer sketchRecallSink.Unlock()
	r.Schema = "bench-sketch/v1"
	sketchRecallSink.report = &r
}

// writeSketchJSON snapshots the recall study when BENCH_SKETCH_JSON
// names a file — `make bench` uses this to produce BENCH_sketch.json.
func writeSketchJSON(path string) error {
	sketchRecallSink.Lock()
	defer sketchRecallSink.Unlock()
	if sketchRecallSink.report == nil {
		return fmt.Errorf("no sketch recall data recorded (did TestSketchRecallContract run?)")
	}
	data, err := json.MarshalIndent(sketchRecallSink.report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_SKETCH_JSON"); path != "" && code == 0 {
		if err := writeSketchJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "writing", path+":", err)
			code = 1
		}
	}
	os.Exit(code)
}
