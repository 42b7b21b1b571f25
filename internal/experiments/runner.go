package experiments

import (
	"fmt"
	"sort"
)

// Result is what every experiment driver produces: a renderable artifact.
type Result interface {
	Render() string
}

// Runner adapts a typed driver to the registry.
type Runner func(Config) (Result, error)

// Registry maps experiment IDs (the table/figure numbers of the paper) to
// their drivers.
var Registry = map[string]Runner{
	"fig1a":   func(c Config) (Result, error) { return Fig1a(c) },
	"fig1b":   func(c Config) (Result, error) { return Fig1b(c) },
	"fig4":    func(c Config) (Result, error) { return Fig4(c) },
	"table4":  func(c Config) (Result, error) { return Table4(c) },
	"table5":  func(c Config) (Result, error) { return Table5(c) },
	"table6":  func(c Config) (Result, error) { return Table6(c) },
	"fig7":    func(c Config) (Result, error) { return Fig7(c) },
	"fig8":    func(c Config) (Result, error) { return Fig8(c) },
	"fig9":    func(c Config) (Result, error) { return Fig9(c) },
	"fig9t":   func(c Config) (Result, error) { return Fig9Trained(c) },
	"memcost": func(c Config) (Result, error) { return MemCost(c) },
}

// Names returns the sorted experiment IDs.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (Result, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, Names())
	}
	return r(cfg)
}
