package strategy

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Builder constructs a fresh Strategy instance. Sweeps and tournaments
// build one instance per replay cell through a Builder so strategy
// state (model caches, controller integrals) never leaks across runs.
type Builder func() Strategy

// Registration describes one named strategy family in a Registry: how
// specs of the family parse and how instances are built.
type Registration struct {
	// Name is the canonical spec name, lower-case ("jupiter", "extra").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Usage documents the spec syntax, e.g. "extra(m, p)".
	Usage string
	// Example is a canonical buildable spec of the family
	// ("extra(2, 0.2)"); the conformance suite and the tournament's
	// default roster build it.
	Example string
	// Build parses the argument list of a spec — nil for a bare name,
	// the trimmed parenthesized parts otherwise — and returns a
	// fresh-instance constructor.
	Build func(args []string) (Builder, error)
}

// Registry maps strategy names to factories. It replaces hardcoded
// strategy rosters: sweeps and tournaments ask the registry for
// builders by spec, so adding a competitor is one Register call, not an
// edit to every experiment driver. Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Registration
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]Registration)}
}

// Register adds a strategy family. Names must be non-empty, lower-case,
// free of the spec metacharacters "(),#", and unregistered.
func (r *Registry) Register(reg Registration) error {
	if reg.Name == "" {
		return fmt.Errorf("strategy: registration needs a name")
	}
	if strings.ContainsAny(reg.Name, "(),# \t") || reg.Name != strings.ToLower(reg.Name) {
		return fmt.Errorf("strategy: invalid name %q (lower-case, no spaces or \"(),#\")", reg.Name)
	}
	if reg.Build == nil {
		return fmt.Errorf("strategy: registration %q needs a Build function", reg.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[reg.Name]; ok {
		return fmt.Errorf("strategy: %q already registered", reg.Name)
	}
	r.entries[reg.Name] = reg
	return nil
}

// MustRegister is Register, panicking on error — for package init time,
// where a bad registration is a programming error.
func (r *Registry) MustRegister(reg Registration) {
	if err := r.Register(reg); err != nil {
		panic(err)
	}
}

// Names lists the registered families, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns a family's registration by name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.entries[name]
	return reg, ok
}

// Build resolves one spec — "name" or "name(arg, arg, ...)" — to a
// fresh-instance constructor.
func (r *Registry) Build(spec string) (Builder, error) {
	name, args, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	reg, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (registered: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	b, err := reg.Build(args)
	if err != nil {
		return nil, fmt.Errorf("strategy: %s: %w", name, err)
	}
	return b, nil
}

// BuildSpecs resolves a list of specs, reporting errors by entry index.
func (r *Registry) BuildSpecs(specs []string) ([]Builder, error) {
	out := make([]Builder, 0, len(specs))
	for i, spec := range specs {
		b, err := r.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("strategy: list entry %d (%q): %w", i+1, spec, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// ParseStrategyList reads a strategy roster, one spec per line ('#'
// starts a comment, blank lines are skipped), resolving each spec
// against the registry and rejecting duplicates. Errors name the
// offending line.
func (r *Registry) ParseStrategyList(rd io.Reader) ([]Builder, []string, error) {
	var builders []Builder
	var specs []string
	seen := map[string]bool{}
	sc := bufio.NewScanner(rd)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		spec := strings.TrimSpace(text)
		if spec == "" {
			continue
		}
		b, err := r.Build(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("strategy: list line %d: %w", line, err)
		}
		canon := canonicalSpec(spec)
		if seen[canon] {
			return nil, nil, fmt.Errorf("strategy: list line %d: duplicate strategy %q", line, spec)
		}
		seen[canon] = true
		builders = append(builders, b)
		specs = append(specs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("strategy: reading strategy list: %w", err)
	}
	return builders, specs, nil
}

// SplitSpecList splits a comma-separated spec list at top-level commas,
// leaving parenthesized argument lists intact. Blank elements are
// skipped; unbalanced parentheses are an error.
func SplitSpecList(s string) ([]string, error) {
	var specs []string
	depth, start := 0, 0
	flush := func(end int) {
		if spec := strings.TrimSpace(s[start:end]); spec != "" {
			specs = append(specs, spec)
		}
		start = end + 1
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("strategy: unbalanced ')' in list %q", s)
			}
		case ',':
			if depth == 0 {
				flush(i)
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("strategy: unbalanced '(' in list %q", s)
	}
	flush(len(s))
	return specs, nil
}

// splitSpec parses "name" or "name(a, b)" into the name and trimmed
// argument list (nil for a bare name).
func splitSpec(spec string) (string, []string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return "", nil, fmt.Errorf("strategy: empty spec")
	}
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		if strings.ContainsAny(spec, "),") {
			return "", nil, fmt.Errorf("strategy: malformed spec %q", spec)
		}
		return strings.ToLower(spec), nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (missing ')')", spec)
	}
	name := strings.ToLower(strings.TrimSpace(spec[:open]))
	if name == "" {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (missing name)", spec)
	}
	inner := spec[open+1 : len(spec)-1]
	if strings.ContainsAny(inner, "()") {
		return "", nil, fmt.Errorf("strategy: malformed spec %q (nested parentheses)", spec)
	}
	var args []string
	if strings.TrimSpace(inner) != "" {
		for _, a := range strings.Split(inner, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	return name, args, nil
}

// canonicalSpec normalizes a spec for duplicate detection: lower-cased
// name, arguments stripped of spaces.
func canonicalSpec(spec string) string {
	name, args, err := splitSpec(spec)
	if err != nil {
		return spec
	}
	if args == nil {
		return name
	}
	return name + "(" + strings.Join(args, ",") + ")"
}

// Argument-parsing helpers for Build functions.

// WantArgs rejects argument lists of the wrong arity with the family's
// usage string in the message.
func WantArgs(usage string, args []string, min, max int) error {
	if len(args) < min || len(args) > max {
		if min == max {
			return fmt.Errorf("want %d argument(s) as %s, got %d", min, usage, len(args))
		}
		return fmt.Errorf("want %d to %d argument(s) as %s, got %d", min, max, usage, len(args))
	}
	return nil
}

// ArgInt parses one integer argument.
func ArgInt(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("argument %s: %q is not an integer", name, v)
	}
	return n, nil
}

// ArgFloat parses one float argument.
func ArgFloat(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("argument %s: %q is not a number", name, v)
	}
	return f, nil
}

// Default is the process-wide registry. The strategy package registers
// its own bidders at init; internal/core registers the Jupiter family.
// Importing a strategy's package is what puts it on the roster.
var Default = NewRegistry()

// Register adds a family to the Default registry, panicking on error.
func Register(reg Registration) { Default.MustRegister(reg) }
