// Package analysis defines the small analyzer API behind cmd/kpavet, the
// repo-invariant static-analysis suite.
//
// The contracts this reproduction rests on are invisible to the Go type
// system: every probability is an exact rational (DESIGN.md trades real
// numbers for big.Rat), rat.Rat values are immutable and freely shareable,
// mutex-guarded fields are touched only under their lock, map iteration
// order never reaches output, context-aware functions stay cancellable,
// every goroutine has a visible end, errors leaving internal/service carry
// a kind, sharded sweeps write only the part they are handed, and sweeps
// and fixpoint loops poll their cancel hook. An Analyzer turns one such
// contract into a machine-checked invariant: it inspects the type-checked
// syntax of one package and reports diagnostics wherever the contract is
// violated.
//
// Beyond single-package syntax, a Pass offers two dataflow services.
// CFG returns the cached control-flow graph of a function body (see the
// sibling cfg package), the substrate for flow-sensitive checks. Object
// facts let an analyzer publish typed conclusions about named objects —
// "this function polls a cancel hook" (PollsCancel), "this function can
// block on a channel" (BlockingFunc), "this function reaches a termination
// signal" (Signals), "this function can return a kindless error"
// (NakedErrReturn), "this DenseSet method writes its receiver"
// (WritesReceiver) — that the driver carries to later passes of the same
// analyzer on importing packages; the driver runs each analyzer over the
// packages in import-dependency order, so an imported object's facts are
// always complete before the importer is analyzed.
//
// Analyzers are deliberately dependency-light (go/ast + go/types + the
// local cfg package) so the suite runs with the toolchain alone; the
// loading and pass ordering live in the sibling driver package, fixtures-
// based testing in analysistest.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"kpa/internal/analysis/cfg"
)

// Analyzer checks one invariant over one type-checked package at a time.
// The driver calls Run once per package, one pass at a time, with every
// package after its local imports.
type Analyzer interface {
	// Name is the short identifier that appears in diagnostics as
	// "[name]".
	Name() string
	// Doc is a one-paragraph description of the contract enforced.
	Doc() string
	// Run inspects one package and reports violations via pass.Report.
	// A non-nil error aborts the whole kpavet run (it means the analyzer
	// itself failed, not that the code has violations).
	Run(pass *Pass) error
}

// Fact is a typed conclusion about a named object, exported by an
// analyzer's pass on the defining package and imported by the same
// analyzer's passes on importing packages. Implementations must be
// pointer types; the marker method keeps arbitrary values out of the
// fact store.
type Fact interface {
	AFact()
}

// Pass carries everything an Analyzer may inspect about one package.
type Pass struct {
	// Fset maps token.Pos values in Files to positions.
	Fset *token.FileSet
	// Module is the module path from go.mod (e.g. "kpa"). Analyzers use
	// it to scope themselves to module-relative package paths, so fixture
	// modules exercise the same policy as the real repository.
	Module string
	// PkgPath is the import path of the package under analysis.
	PkgPath string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Files are the parsed non-test source files of the package.
	Files []*ast.File
	// Info holds the type-checking results for Files.
	Info *types.Info
	// Report records a diagnostic at pos. The driver attaches the
	// analyzer name and resolves the position.
	Report func(pos token.Pos, msg string)
	// CFG returns the control-flow graph of a function body, built on
	// first use and cached for the whole run (graphs are shared between
	// analyzers, so treat them as read-only).
	CFG func(body *ast.BlockStmt) *cfg.Graph
	// ExportObjectFact publishes a fact about obj, visible to this
	// analyzer's later passes on packages that import this one. The fact
	// must not be mutated after export.
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportObjectFact copies the fact of fact's type previously exported
	// for obj into fact, reporting whether one exists. Facts exported by
	// other analyzers are invisible.
	ImportObjectFact func(obj types.Object, fact Fact) bool
}

// Diagnostic is one reported contract violation, already resolved to a
// file position. The driver returns them sorted by (File, Line, Col,
// Analyzer, Message) so output is deterministic run to run.
type Diagnostic struct {
	File     string // path relative to the module root
	Line     int
	Col      int
	Analyzer string
	Message  string
}
