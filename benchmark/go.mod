module aggcache/benchmark

go 1.22

require aggcache v0.0.0

replace aggcache => ../
