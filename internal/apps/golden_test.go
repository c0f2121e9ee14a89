package apps

import (
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
)

// TestCentralOwnershipGoldenTimes pins the default (central-ownership)
// DSM to the exact wall times it produced before the distributed
// organization existed. The distributed code paths are gated on
// Config.DSMOwnership, so the default must stay bit-identical: any
// drift here means the gate leaks into the central protocol. The
// Cholesky rows cover the lock-heavy fine-grained path the Jacobi and
// Water rows miss; the update-protocol row covers the copyset, the
// forwarded-diff handler and the twin kept in step with it; the
// distributed row pins the probable-owner and parked-request code.
func TestCentralOwnershipGoldenTimes(t *testing.T) {
	update := func(c *config.Config) { c.UpdateProtocol = true }
	distributed := func(c *config.Config) { c.DSMOwnership = config.DSMDistributed }
	cholesky := func() App { return NewCholesky(spmat.Small(64)) }
	cases := []struct {
		kind  config.NICKind
		tune  func(*config.Config)
		mk    func() App
		procs int
		want  int64
	}{
		{config.NICCNI, nil, func() App { return NewJacobi(64, 4) }, 8, 461860},
		{config.NICOsiris, nil, func() App { return NewJacobi(64, 4) }, 8, 731003},
		{config.NICStandard, nil, func() App { return NewJacobi(64, 4) }, 8, 848194},
		{config.NICCNI, nil, func() App { return NewWater(16, 2) }, 4, 421183},
		{config.NICOsiris, nil, func() App { return NewWater(16, 2) }, 4, 657217},
		{config.NICStandard, nil, func() App { return NewWater(16, 2) }, 4, 879269},
		{config.NICCNI, nil, cholesky, 4, 2497746},
		{config.NICOsiris, nil, cholesky, 4, 4656709},
		{config.NICStandard, nil, cholesky, 4, 5953950},
		{config.NICCNI, update, cholesky, 4, 2045214},
		{config.NICCNI, distributed, cholesky, 4, 2463522},
	}
	for _, tc := range cases {
		app := tc.mk()
		cfg := config.ForNIC(tc.kind)
		if tc.tune != nil {
			tc.tune(&cfg)
		}
		c, res := MustExecute(&cfg, tc.procs, app)
		if err := app.Verify(c); err != nil {
			t.Fatalf("%s on %d x %v: %v", app.Name(), tc.procs, tc.kind, err)
		}
		if int64(res.Time) != tc.want {
			t.Errorf("%s on %d x %v (update=%v, ownership=%q): wall time %d, want golden %d",
				app.Name(), tc.procs, tc.kind, cfg.UpdateProtocol, cfg.DSMOwnership, res.Time, tc.want)
		}
	}
}

// TestAppsDistributedOwnership runs each benchmark under distributed
// ownership on every interface and verifies against the sequential
// reference: the ownership organization must never change what the
// program computes.
func TestAppsDistributedOwnership(t *testing.T) {
	apps := []func() App{
		func() App { return NewJacobi(32, 3) },
		func() App { return NewWater(16, 1) },
		func() App { return NewCholesky(spmat.Small(64)) },
	}
	for _, kind := range []config.NICKind{config.NICCNI, config.NICOsiris, config.NICStandard} {
		for _, mk := range apps {
			app := mk()
			cfg := config.ForNIC(kind)
			cfg.DSMOwnership = config.DSMDistributed
			c, res := MustExecute(&cfg, 4, app)
			if err := app.Verify(c); err != nil {
				t.Fatalf("%s on %v distributed: %v", app.Name(), kind, err)
			}
			if res.Time <= 0 {
				t.Fatalf("%s on %v distributed: no time", app.Name(), kind)
			}
		}
	}
}
