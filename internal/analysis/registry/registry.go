// Package registry enumerates the cmvet analyzer suite. It sits apart
// from the framework package so analyzer packages (which import
// internal/analysis) never form a cycle with the code that needs the
// full list (cmd/cmvet, the CI driver tests).
package registry

import (
	"ciphermatch/internal/analysis"
	"ciphermatch/internal/analysis/atomicfield"
	"ciphermatch/internal/analysis/ctbranch"
	"ciphermatch/internal/analysis/hotpath"
	"ciphermatch/internal/analysis/poolrelease"
	"ciphermatch/internal/analysis/wiresize"
)

// All is the full cmvet analyzer suite, in report order.
var All = []*analysis.Analyzer{
	hotpath.Analyzer,
	ctbranch.Analyzer,
	wiresize.Analyzer,
	poolrelease.Analyzer,
	atomicfield.Analyzer,
}
