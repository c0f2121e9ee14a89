package apps

import (
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
)

// BenchmarkCholeskyBCSSTK14 runs the paper's fine-grained DSM workload
// (bcsstk14-profile sparse Cholesky on 8 CNI nodes) end to end; run it
// with -cpuprofile or -memprofile to see where simulator time goes.
func BenchmarkCholeskyBCSSTK14(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		app := NewCholesky(spmat.BCSSTK14())
		MustExecute(&cfg, 8, app)
	}
}
