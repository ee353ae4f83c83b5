package fn

import "github.com/measures-sql/msql/internal/sqltypes"

// The value codec lives in sqltypes; the state-codec tests of this
// package compare and round-trip values through it under these names.
var (
	AppendValue  = sqltypes.AppendValue
	AppendValues = sqltypes.AppendValues
	DecodeValue  = sqltypes.DecodeValue
	DecodeValues = sqltypes.DecodeValues
)
