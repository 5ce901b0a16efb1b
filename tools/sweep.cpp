// sweep -- the same command as `tracemod sweep` (tracemod_cli.cpp), kept
// as its own binary for the scripts and docs that call it by this name.
#include <string>
#include <vector>

#include "tracemod_cli.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args = {"sweep"};
  args.insert(args.end(), argv + 1, argv + argc);
  return tracemod::cli::run(args);
}
