// Package codec is the shared kernel of the repository's two binary
// trace formats: SPRT, the branch-event recording of internal/replay,
// and SPBT, the committed-outcome stream of internal/synth. Each format
// keeps its own layout and invariants; what they share lives here:
//
//   - the header: a magic string and a one-byte version (Format.Header
//     writes it, Format.Open checks it);
//   - a cursor over untrusted bytes (Reader) that reads uvarints and
//     raw byte runs, checks a declared entry count against the input
//     that is left before anything is allocated for it, and rejects
//     trailing bytes;
//   - the typed errors ErrBadMagic, ErrVersion and ErrCorrupt. Each
//     format wraps them with its own package name, so errors.Is
//     matches both the format's error and the kernel's.
//
// The allocation bound: a decoder calls Reader.Count with the smallest
// encoding an entry can have before it sizes a slice by a declared
// count, so the entries it allocates for are entries the input could
// hold. A decoded value therefore costs at most a fixed number of bytes
// per input byte, whatever the input declares.
package codec
