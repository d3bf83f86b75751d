// Package engine builds core.Engine instances from declarative specs,
// covering every substrate: the CPU engines from internal/core and the
// in-flash engine from internal/ssd (which core cannot construct itself
// because ssd depends on core). The proto server, the ciphermatch
// facade and the CLIs all resolve engine selection here, so a workload
// can be moved between substrates — like the paper moves its search
// between CPU, PuM and flash — by changing one flag.
package engine

import (
	"fmt"
	"strconv"
	"strings"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/ssd"
)

// Build constructs the engine selected by spec over db, using the
// default (Table 3) drive configuration for SSD engines.
func Build(params bfv.Params, db *core.EncryptedDB, spec core.EngineSpec) (core.Engine, error) {
	return BuildWith(params, db, spec, ssd.DefaultConfig(), ssd.SoftwareTransposition)
}

// BuildWith is Build with an explicit drive configuration for the SSD
// kind.
func BuildWith(params bfv.Params, db *core.EncryptedDB, spec core.EngineSpec, driveCfg ssd.Config, kind ssd.TranspositionKind) (core.Engine, error) {
	if spec.Kind != core.EngineSSD {
		return core.NewEngine(params, db, spec)
	}
	return ssd.NewEngineForDB(driveCfg, params, kind, db)
}

// Kinds lists the engine kinds Build accepts, for CLI usage strings.
func Kinds() []string {
	return []string{core.EngineSerial, core.EnginePool, core.EngineSSD}
}

// Parse reads a spec of the form "kind[:workers]", e.g. "serial",
// "pool" or "pool:8". The empty string is the serial engine. This is
// the inverse of core.EngineSpec.String.
func Parse(s string) (core.EngineSpec, error) {
	var spec core.EngineSpec
	rest := strings.TrimSpace(s)
	if rest == "" {
		return spec, nil
	}
	if kind, workers, ok := strings.Cut(rest, ":"); ok {
		n, err := strconv.Atoi(workers)
		if err != nil || n < 1 {
			return spec, fmt.Errorf("engine: bad worker count %q", workers)
		}
		spec.Workers = n
		rest = kind
	}
	switch rest {
	case core.EngineSerial, core.EnginePool, core.EngineSSD:
		spec.Kind = rest
	default:
		return spec, fmt.Errorf("engine: unknown kind %q (have %s)", rest, strings.Join(Kinds(), ", "))
	}
	if spec.Workers > 0 && spec.Kind != core.EnginePool {
		return spec, fmt.Errorf("engine: workers only apply to the pool engine")
	}
	return spec, nil
}
