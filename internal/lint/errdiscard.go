package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDiscardPkgs are the persistence and transport packages where a
// dropped Write/Close/Encode error means silent data loss: a short write
// to an .npy shard or a swallowed frame-encode error corrupts campaign
// state without any test noticing.
var errDiscardPkgs = map[string]bool{
	"cluster": true,
	"npy":     true,
	"dataset": true,
	"stream":  true,
	// service writes campaign checkpoints and HTTP responses; a dropped
	// write error there is a silently lost generation or a half-sent
	// frontier.
	"service": true,
	// wire is the binary framing layer itself; a swallowed encode or
	// short-write error there desynchronizes the stream for every
	// message that follows.
	"wire": true,
}

// ErrDiscard flags discarded errors on I/O, network and encode paths in
// the persistence-critical packages: bare-call statements whose error
// result vanishes, and `_ =` assignments of such errors.  Deferred
// calls are exempt (best-effort cleanup is the defer idiom); genuinely
// best-effort discards take a //lint:ignore with the reason.
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "no dropped errors on io/net/encode paths in cluster, npy, dataset, stream",
	Run:  runErrDiscard,
}

// ioMethodNames are method names whose error result reports I/O failure.
var ioMethodNames = map[string]bool{
	"Close": true, "CloseWrite": true, "Write": true, "WriteString": true,
	"WriteByte": true, "WriteRune": true, "Flush": true, "Sync": true,
	"Encode": true, "Decode": true, "Shutdown": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// ioPkgPaths are packages all of whose error-returning functions count.
var ioPkgPaths = map[string]bool{
	"io": true, "bufio": true, "os": true,
	"encoding/json": true, "encoding/binary": true, "encoding/gob": true,
}

// ioFuncPrefixes match project-local helpers on the wire/shard paths
// (writeBatch, readFrame, sendResult, …).
var ioFuncPrefixes = []string{"write", "read", "send", "recv", "flush", "encode", "decode", "marshal", "unmarshal"}

func runErrDiscard(pass *Pass) {
	if !errDiscardPkgs[basePkgName(pass)] {
		return
	}
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		if inTestFile(pass, n) {
			return
		}
		// The defer exemption covers the whole deferred subtree, so a
		// `defer func() { _ = c.Close() }()` cleanup closure is as
		// idiomatic as `defer c.Close()` itself.
		for _, anc := range stack {
			if _, ok := anc.(*ast.DeferStmt); ok {
				return
			}
		}
		switch node := n.(type) {
		case *ast.ExprStmt:
			call, ok := node.X.(*ast.CallExpr)
			if !ok || !returnsError(pass.Info, call) {
				return
			}
			if name, ok := ioCallee(pass.Info, call); ok {
				pass.Reportf(node.Pos(), "error from %s dropped by bare call: a failed write/close here is silent data loss; handle it or //lint:ignore with the reason it is best-effort", name)
			}
		case *ast.AssignStmt:
			checkBlankErrAssign(pass, node)
		}
	})
}

// checkBlankErrAssign flags assignments whose error results all land in
// the blank identifier (`_ = conn.Close()`, `n, _ := w.Write(p)`).
func checkBlankErrAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := ioCallee(pass.Info, call)
	if !ok {
		return
	}
	sig := pass.Info.TypeOf(call)
	if sig == nil {
		return
	}
	errIdx := errorResultIndices(sig)
	if len(errIdx) == 0 {
		return
	}
	for _, i := range errIdx {
		if i >= len(as.Lhs) {
			return
		}
		id, isIdent := as.Lhs[i].(*ast.Ident)
		if !isIdent || id.Name != "_" {
			return // at least one error result is bound
		}
	}
	pass.Reportf(as.Pos(), "error from %s assigned to _: a failed write/close here is silent data loss; handle it or //lint:ignore with the reason it is best-effort", name)
}

// errorResultIndices returns the result positions of type error.
func errorResultIndices(t types.Type) []int {
	var idx []int
	switch rt := t.(type) {
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if isErrorType(rt.At(i).Type()) {
				idx = append(idx, i)
			}
		}
	default:
		if isErrorType(rt) {
			idx = append(idx, 0)
		}
	}
	return idx
}

func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	return t != nil && len(errorResultIndices(t)) > 0
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// ioCallee classifies the callee; it returns a printable name and
// whether the call sits on an I/O, network or encode path.
func ioCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if path, name := pkgCall(info, fun); path != "" {
			if ioPkgPaths[path] {
				return path + "." + name, true
			}
			return "", false
		}
		if ioMethodNames[fun.Sel.Name] {
			return types.ExprString(fun.X) + "." + fun.Sel.Name, true
		}
	case *ast.Ident:
		lower := strings.ToLower(fun.Name)
		for _, p := range ioFuncPrefixes {
			if strings.HasPrefix(lower, p) {
				return fun.Name, true
			}
		}
	}
	return "", false
}
