package sockets

import "unsafe"

// The two conversions below are the package's only uses of unsafe. Each
// skips one copy of a value on the request path, and each is safe for
// the reason its comment gives; neither may be used for anything else.

// readOnlyBytes views an immutable string as bytes for the wire encoder
// to read: a stored value going into a GET or MGET response, or a
// caller's value or stamp going into a SETV, MPUT or MDEL request. Go
// strings are never written, and the view is only ever read — by
// AppendResponse or AppendRequest, which copy it onto the wire — so no
// write can reach the string through it.
func readOnlyBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// ownedString hands a response value to the caller as a string without
// copying it again. Safe only for bytes ownResponse just allocated for
// this one response: the caller drops the response once it has the
// string, so nothing else references the bytes and nothing can write
// them.
func ownedString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
