module github.com/measures-sql/msql/benchmark

go 1.22

require github.com/measures-sql/msql v0.0.0

replace github.com/measures-sql/msql => ../
