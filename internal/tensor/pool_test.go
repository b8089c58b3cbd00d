package tensor

import (
	"fmt"
	"testing"

	"reramtest/internal/rng"
)

// BenchmarkReLUMaxPool times the host's 2×2 pool kernel and its Go twin on
// the five pool panels of LeNet-5 and ConvNet-7 (planes × inH × inW), in ns
// per pooled output.
func BenchmarkReLUMaxPool(b *testing.B) {
	panels := [][3]int{{6, 28, 28}, {16, 10, 10}, {12, 32, 32}, {24, 16, 16}, {32, 8, 8}}
	kernels := []struct {
		name string
		pool func(out, panel []float64, planes, inH, inW int)
	}{{"host", ReLUMaxPool2x2}, {"generic", ReLUMaxPool2x2Generic}}
	for _, k := range kernels {
		for _, p := range panels {
			planes, inH, inW := p[0], p[1], p[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", k.name, planes, inH, inW), func(b *testing.B) {
				panel := RandUniform(rng.New(1), 0, 1, planes*inH*inW).Data()
				out := make([]float64, planes*(inH/2)*(inW/2))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.pool(out, panel, planes, inH, inW)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(out)), "ns/output")
			})
		}
	}
}
