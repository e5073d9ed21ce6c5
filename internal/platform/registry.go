package platform

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
)

var (
	registry []*Profile
	byName   = make(map[string]*Profile)
)

// Register adds a profile to the package registry and builds its device,
// RP plan and RP names once. A profile with the same part and fabric as an
// earlier one shares that one's geometry, so artefacts keyed by device are
// built once per geometry. It panics on a duplicate name or an invalid
// profile — registration happens at init, so a panic is a build-time
// programming error, not a runtime one.
func Register(p *Profile) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if _, dup := byName[p.Name]; dup {
		panic(fmt.Sprintf("platform: duplicate profile %q", p.Name))
	}
	for _, q := range registry {
		if q.Part == p.Part && q.Fabric == p.Fabric {
			p.device, p.rps, p.rpNames = q.device, q.rps, q.rpNames
			break
		}
	}
	if p.device == nil {
		p.device = fabric.NewDevice(fabric.Geometry{
			Name: p.Part, IDCode: p.Fabric.IDCode, Rows: p.Fabric.Rows, Tiles: p.Fabric.Tiles,
		})
		p.rps = fabric.TiledRPs(p.device, p.Fabric.RPTiles)
		for _, rp := range p.rps {
			p.rpNames = append(p.rpNames, rp.Name)
		}
	}
	byName[p.Name] = p
	registry = append(registry, p)
}

// Default returns the paper's calibrated ZedBoard profile.
func Default() *Profile { return byName["zedboard"] }

// Lookup finds a profile by name; "" resolves to the default.
func Lookup(name string) (*Profile, bool) {
	if name == "" {
		return Default(), true
	}
	p, ok := byName[name]
	return p, ok
}

// All returns every registered profile in registration order.
func All() []*Profile {
	out := make([]*Profile, len(registry))
	copy(out, registry)
	return out
}

// Boards returns the profiles that model distinct silicon (presets/variants
// of another board are skipped), in registration order. The cross-platform
// scenarios sweep these.
func Boards() []*Profile {
	var out []*Profile
	for _, p := range registry {
		if p.VariantOf == "" {
			out = append(out, p)
		}
	}
	return out
}

// Names returns the registered profile names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name
	}
	return out
}

// NameList renders "zedboard|…" for usage and error strings, so messages
// listing the valid platforms can never drift from the registry.
func NameList() string { return strings.Join(Names(), "|") }
