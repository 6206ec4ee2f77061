package main

import (
	"fmt"
	"time"

	"darknight"
	"darknight/internal/nn"
	"darknight/internal/perf"
)

// archOf describes the benchmark's two models as analytic layer records,
// the input of perf.NewWorkload. The records are written out here for the
// 1×8×8, 4-class geometry BuildModel uses; archOf checks their parameter
// total against the real model so the two cannot drift apart silently.
func archOf(name string, seed int64) (*nn.Arch, error) {
	lin := func(n string, in, out, macs, params int64) nn.LayerStat {
		return nn.LayerStat{Name: n, Class: nn.ClassLinear, MACs: macs, InElems: in, OutElems: out, Params: params}
	}
	relu := func(n string, elems int64) nn.LayerStat {
		return nn.LayerStat{Name: n, Class: nn.ClassReLU, MACs: elems, InElems: elems, OutElems: elems}
	}
	dense := func(n string, in, out int64) nn.LayerStat { return lin(n, in, out, in*out, in*out+out) }
	a := &nn.Arch{Name: name, Input: [3]int{1, 8, 8}}
	switch name {
	case "tiny": // conv 3×3 1→6 pad 1, ReLU, 2×2 max-pool, dense 96→4
		a.Layers = []nn.LayerStat{
			lin("conv1", 64, 384, 384*9, 6*9+6),
			relu("relu1", 384),
			{Name: "pool1", Class: nn.ClassMaxPool, MACs: 96 * 4, InElems: 384, OutElems: 96},
			dense("fc", 96, 4),
		}
	case "deep": // two stacks of three dense layers, each stack then a ReLU; dense head
		in := int64(64)
		for s := 1; s <= 2; s++ {
			for f := 1; f <= 3; f++ {
				a.Layers = append(a.Layers, dense(fmt.Sprintf("s%d_fc%d", s, f), in, 16))
				in = 16
			}
			a.Layers = append(a.Layers, relu(fmt.Sprintf("s%d_relu", s), 16))
		}
		a.Layers = append(a.Layers, dense("head", 16, 4))
	default:
		return nil, fmt.Errorf("no analytic record for model %q", name)
	}
	m, err := darknight.BuildModel(name, seed)
	if err != nil {
		return nil, err
	}
	if got := a.TotalParams(); got != m.ParamCount() {
		return nil, fmt.Errorf("analytic record of %q has %d params, model has %d", name, got, m.ParamCount())
	}
	return a, nil
}

// modelNote explains the expected disagreement on these shapes.
const modelNote = "note: the model charges the paper's 1.5 ms SGX per-layer enclave overhead to encode/decode, which dwarfs " +
	"these few-hundred-MAC layers; the software enclave here has no such overhead, so the simulated devices' dispatch dominates"

// benchCoding is coding() as the time model's Coding.
var benchCoding = perf.Coding{K: 4, M: 1, E: 1}

// paperServe prints the measured shares of the batch span beside the
// analytic model's per-image inference breakdown (DarKnightInferenceOps).
// The comparison is reported, not gated.
func (r *run) paperServe(arch string, batch, encdec, dispatch, teeOther, grant time.Duration) error {
	a, err := archOf(arch, r.seed)
	if err != nil {
		return err
	}
	o := perf.DarKnightInferenceOps(perf.Default(), perf.NewWorkload(a), benchCoding)
	pEncdec := (o.Blinding + o.Unblinding) / o.Total
	pNonlin := (o.ReLU + o.MaxPool) / o.Total
	b := float64(batch)
	r.printf("paper check (share of batch span; model = internal/perf DarKnightInferenceOps, paper testbed):\n")
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "encode+decode", ratio(float64(encdec), b), pEncdec)
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "dispatch (GPU+link)", ratio(float64(dispatch), b), 1-pEncdec-pNonlin)
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "TEE non-linear+other", ratio(float64(teeOther), b), pNonlin)
	r.printf("  %-22s measured %6.3f   model %6s\n", "fleet grant wait", ratio(float64(grant), b), "-")
	r.printf("  %s\n", modelNote)
	return nil
}

// paperTrain prints the measured shares of the virtual-batch spans beside
// the analytic model's unpipelined training breakdown (DarKnightTrain).
func (r *run) paperTrain(vbatch, encdec, dispatch, teeOther time.Duration) error {
	a, err := archOf("deep", r.seed)
	if err != nil {
		return err
	}
	f := perf.DarKnightTrain(perf.Default(), perf.NewWorkload(a), benchCoding, false).Fractions()
	b := float64(vbatch)
	r.printf("paper check (share of train.vbatch spans; model = internal/perf DarKnightTrain, unpipelined, paper testbed):\n")
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "encode+decode", ratio(float64(encdec), b), f.EncodeDecode)
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "dispatch (GPU+link)", ratio(float64(dispatch), b), f.Linear+f.Comm)
	r.printf("  %-22s measured %6.3f   model %6.3f\n", "TEE non-linear+other", ratio(float64(teeOther), b), f.NonLinear)
	r.printf("  %s\n", modelNote)
	return nil
}
