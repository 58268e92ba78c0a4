package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// timingAllowlist names the module-relative packages whose job is
// wall-clock measurement; time.Now there is the point, not a hazard.
// Everywhere else a time.Now call needs a //lint:allow randsource with a
// reason making the not-simulation-state argument explicit.
var timingAllowlist = map[string]bool{
	"internal/trace":     true,
	"internal/perfmodel": true,
	"internal/ensemble":  true,
	"internal/supervise": true,
}

// bannedRandImports are randomness sources that bypass the deterministic
// rng.Source discipline.  They are banned everywhere: even a cmd/ or
// examples/ package drawing from math/rand would print values a rerun
// cannot reproduce.
var bannedRandImports = map[string]string{
	"math/rand":    "non-deterministic unless globally seeded, and global seeding breaks stream independence",
	"math/rand/v2": "auto-seeded; irreproducible by construction",
	"crypto/rand":  "cryptographic randomness is irreproducible by design",
}

// RandSource enforces the repository's reproducibility contract: all
// randomness flows through internal/rng.Source, which is seeded, splittable
// and checkpointable.  math/rand (v1 and v2) and crypto/rand imports are
// errors everywhere; time.Now calls are errors outside the wall-clock
// allowlist (trace, perfmodel, ensemble, supervise),
// because a time-derived value that leaks into simulation state destroys
// bit-identical-per-seed replay.
var RandSource = &Analyzer{
	Name: "randsource",
	Doc:  "all randomness must flow through internal/rng.Source; no math/rand, crypto/rand, or stray time.Now",
	Run:  runRandSource,
}

func runRandSource(ctx *Context) {
	for _, pkg := range ctx.Packages {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if why, banned := bannedRandImports[path]; banned {
					ctx.Reportf(spec.Pos(), "import of %s: %s; use internal/rng.Source", path, why)
				}
			}
			if timingAllowlist[pkg.Rel] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgCall(pkg, call, "time", "Now") {
					ctx.Reportf(call.Pos(), "time.Now outside the timing allowlist: wall-clock values must never feed simulation state (route timing through internal/trace, or //lint:allow randsource with a reason)")
				}
				return true
			})
		}
	}
}

// isPkgCall reports whether call is pkgName.funcName(...) where pkgName
// resolves to an import of the given path.
func isPkgCall(pkg *Package, call *ast.CallExpr, path, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return identIsPackage(pkg, id, path)
}

// identIsPackage reports whether id names an import of path, using type
// info when available (which honours renamed imports) and the syntactic
// package name otherwise.
func identIsPackage(pkg *Package, id *ast.Ident, path string) bool {
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			pn, ok := obj.(*types.PkgName)
			return ok && pn.Imported().Path() == path
		}
	}
	return id.Name == lastPathElement(path)
}

func lastPathElement(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
