module github.com/sampleclean/svc/benchmark

go 1.24

require github.com/sampleclean/svc v0.0.0

replace github.com/sampleclean/svc => ../
